import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from borelsum import (DomainError, PoleError, PrecisionConfig, gamma_ratio,
                      gamma_ratios, working_precision)


def test_precision_config_invariants():
    cfg = PrecisionConfig(128)
    assert cfg.mantissa_bits == 128
    assert cfg.default_tolerance > 0
    with pytest.raises(ValueError):
        PrecisionConfig(52)


def test_default_tolerance_stays_below_one_at_low_precision():
    # 56 bits above epsilon, capped at a quarter of the mantissa
    assert PrecisionConfig(53).default_tolerance == 2.0 ** -40
    assert PrecisionConfig(64).default_tolerance == 2.0 ** -48
    assert PrecisionConfig(128).default_tolerance == 2.0 ** -96
    assert PrecisionConfig(256).default_tolerance == 2.0 ** -200


def test_gamma_ratio_integer_kernel(workprec):
    # Gamma(2) Gamma(3) / Gamma(5) = 2/24
    assert abs(gamma_ratio(2, 2, 1) - mp.mpf(1) / 12) < mp.mpf(2) ** -240


def _ratio_product_oracle(z, n):
    # Gamma(z) Gamma(n) / Gamma(z+n) = (n-1)! / (z (z+1) ... (z+n-1))
    prod = mp.mpc(1)
    for i in range(n):
        prod *= (z + i)
    return mp.factorial(n - 1) / prod


def test_gamma_ratio_vs_product_oracle(workprec):
    eps10 = 10 * mp.mpf(2) ** -256
    assert abs(gamma_ratio(2, 4, 0) - mp.mpf("0.05")) < eps10
    # product oracle computed with guard bits so its own rounding does not
    # eat the 10-ulp budget being verified
    z = mp.mpc(10, 10)
    got = gamma_ratio(z, 30, 0)
    with mp.extraprec(64):
        want = _ratio_product_oracle(z, 30)
    assert abs(got - want) / abs(want) < eps10
    for zr, n in ((mp.mpf("0.75"), 7), (mp.mpc(3, -2), 50), (mp.mpf(25), 13)):
        got = gamma_ratio(zr, n, 0)
        with mp.extraprec(64):
            want = _ratio_product_oracle(zr, n)
        assert abs(got - want) / abs(want) < eps10


def test_gamma_ratio_large_n_no_overflow(workprec):
    val = gamma_ratio(mp.mpf(30), 200, 1)
    assert mp.isfinite(val) and abs(val) > 0


def test_gamma_ratio_preconditions():
    with pytest.raises(DomainError):
        gamma_ratio(2, 0, 0)
    with pytest.raises(DomainError):
        gamma_ratio(2, 3, -1)
    with pytest.raises(PoleError):
        gamma_ratio(-2, 3, 0)
    with pytest.raises(PoleError):
        gamma_ratio(-5, 2, 3)  # z + s + n = 0


def _gamma_ratio_families(prec):
    """(z, s, count) of the kernels the sums use: psi branch sweeps
    (lambda z, s = 1), Euler factorial sums (complex z, s = 1) and the
    example2 beta kernels (lambda z e^(i pi/3), s = 1/2 and 1)."""
    with working_precision(prec):
        psi = [(lam * mp.mpf(mod), 1, 42) for lam in (mp.mpf(2.885390081777927), mp.mpf(4))
               for mod in (10, 12, 13.375)]
        euler = [(mp.mpf(2.5), 1, 202), (mp.mpf(7.125) * mp.exp(1j * mp.mpf(-0.625)), 1, 60)]
        w = mp.mpf("0.6") * 5 * mp.exp(1j * mp.pi / 3)
        example2 = [(w, mp.mpf(1) / 2, 76), (w, 1, 76), (mp.mpf(5), mp.mpf(1) / 2, 56)]
    return psi + euler + example2


def test_gamma_ratios_equal_gamma_ratio_bit_for_bit(prec):
    for z, s, count in _gamma_ratio_families(prec):
        chain = gamma_ratios(z, s, count, prec)
        assert len(chain) == count
        for n, k in enumerate(chain):
            single = gamma_ratio(z, n, s, prec)
            assert (k.real, k.imag) == (single.real, single.imag), (z, s, n)


def test_gamma_ratios_at_other_precisions():
    for bits in (53, 113, 512):
        prec = PrecisionConfig(bits)
        with working_precision(prec):
            z = mp.mpf(12) * mp.mpf(2.885390081777927)
        assert gamma_ratios(z, 1, 41, prec) == [gamma_ratio(z, n, 1, prec) for n in range(41)]


def test_gamma_ratios_preconditions():
    assert gamma_ratios(2, 1, 0) == []
    with pytest.raises(DomainError):
        gamma_ratios(2, 1, -1)
    with pytest.raises(DomainError):
        gamma_ratios(2, 0, 3)  # s = 0: the n = 0 element is Gamma(0)
    with pytest.raises(DomainError):
        gamma_ratios(2, -1, 3)
    with pytest.raises(PoleError):
        gamma_ratios(0, 1, 3)
    with pytest.raises(PoleError):
        gamma_ratios(-3, mp.mpf(1) / 2, 3)
    with pytest.raises(PoleError):
        gamma_ratios(mp.mpf(-5) / 2, mp.mpf(1) / 2, 3)  # z + s = -2


@settings(max_examples=40, deadline=None)
@given(st.complex_numbers(min_magnitude=0.1, max_magnitude=50,
                          allow_nan=False, allow_infinity=False))
def test_gamma_ratio_functional_equation(z):
    # Gamma(z) Gamma(1) / Gamma(z + 1) = 1/z in the right half-plane: the
    # guard bits keep the log-gamma differences' roundoff below one ulp
    if z.real <= 0.05:
        z = complex(abs(z.real) + 0.1, z.imag)
    prec = PrecisionConfig(256)
    with working_precision(prec):
        zc = mp.mpc(z)
        assert abs(gamma_ratio(zc, 1, 0, prec) * zc - 1) < 10 * mp.mpf(2) ** -256


def test_leaf_conversion_inherits_ambient_precision():
    # converters without an explicit config inherit the caller's context
    from borelsum.numerics import as_mpf
    with working_precision(PrecisionConfig(512)):
        x = as_mpf("0.1")
        err = abs(x - mp.mpf(1) / 10)
        assert err < mp.mpf(2) ** -500


def test_precision_doubling_stability():
    # doubling the mantissa does not move results beyond the coarse tolerance
    v256 = gamma_ratio(mp.mpc(3, 4), 30, mp.mpf(1) / 2, PrecisionConfig(256))
    v512 = gamma_ratio(mp.mpc(3, 4), 30, mp.mpf(1) / 2, PrecisionConfig(512))
    assert abs(v256 - v512) < mp.mpf(2) ** -250 * abs(v512)
