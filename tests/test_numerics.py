import random
import re
import threading
import time
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from borelsum import (DomainError, FormalSeries, PoleError, PrecisionConfig, RamifiedPoint,
                      b_bound, binomial_series, bound_comparison_table, branch_sum,
                      d_coefficient, d_coefficient_exact, d_coefficient_row, euler_series,
                      example2_series, factorial_expansion, factorial_series_sum, gamma_ratio,
                      generalized_coefficients, generalized_factorial_sum, partial_sum, power,
                      psi_scaled_coefficients, psi_series, r_as, r_as_ramified, r_fact,
                      r_fact_asymptotic, rotated_generalized_sum, stirling_first,
                      working_precision)
from borelsum.numerics import _Chain, as_fraction, as_index, as_mpc, as_mpf, ensure_finite


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


def test_ensure_finite_names_a_non_finite_value():
    assert ensure_finite(mp.mpf(2)) == 2
    for bad in (mp.inf, mp.nan, mp.mpc(1, mp.inf)):
        with pytest.raises(DomainError, match="non-finite value produced"):
            ensure_finite(bad)


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
    example2 beta kernels (lambda z e^(i pi/3), s = 1/2 and 1), and
    non-dyadic offsets, where s + n rounded to the working precision would
    move the single kernel off the chain; the exact Fraction offset must be
    rounded the same way by both."""
    with working_precision(prec):
        psi = [(lam * mp.mpf(mod), 1, 42) for lam in (mp.mpf(2.885390081777927), mp.mpf(4))
               for mod in (10, 12, 13.375)]
        euler = [(mp.mpf(2.5), 1, 202), (mp.mpf(7.125) * mp.exp(1j * mp.mpf(-0.625)), 1, 60)]
        w = mp.mpf("0.6") * 5 * mp.exp(1j * mp.pi / 3)
        example2 = [(w, mp.mpf(1) / 2, 76), (w, 1, 76), (mp.mpf(5), mp.mpf(1) / 2, 56)]
        thirds = [(mp.mpc(3, 4), mp.mpf(1) / 3, 40),
                  (12 * mp.mpf(2.885390081777927), mp.mpf(5) / 3, 40),
                  (mp.mpc(3, 4), Fraction(1, 3), 40)]
    return psi + euler + example2 + thirds


def _fresh_chain(z, s, count, prec):
    """The first ``count`` kernels n = 0, 1, ... of a fresh chain at z and s."""
    with working_precision(prec):
        return _Chain(as_mpc(z), as_mpf(s)).upto(count - 1)[:count]


def test_kernel_chain_equals_gamma_ratio_bit_for_bit(prec):
    # element 0 is the shared start; each n >= 1 sets the recurrence against
    # a log-gamma start at s + n
    for z, s, count in _gamma_ratio_families(prec):
        chain = _fresh_chain(z, s, count, prec)
        assert len(chain) == count
        for n, k in enumerate(chain):
            single = gamma_ratio(z, n, s, prec)
            assert (k.real, k.imag) == (single.real, single.imag), (z, s, n)
        # a chain grown in pieces, to 5 and then 41 elements, and read at 3, is
        # the one-pass chain; it grows at its own precision, outside the block
        with working_precision(prec):
            grown = _Chain(as_mpc(z), as_mpf(s))
        whole = _fresh_chain(z, s, 41, prec)
        assert grown.upto(4) == whole[:5], (z, s)
        assert grown.upto(40) == whole and grown.upto(2) == whole, (z, s)


def _chain_by_operators(z, s, count, prec):
    """The chain's recurrence through mpmath's operators, K_n = K_(n-1) (s + n - 1)
    / (z + s + n - 1) at 64 guard bits, each element rounded once: the reference
    of its raw-tuple steps."""
    with working_precision(prec):
        zc, sf, out = as_mpc(z), as_mpf(s), []
        with mp.extraprec(64):
            for n in range(count):
                k = (k * (sf + (n - 1)) / (zc + sf + (n - 1)) if n else 1 / zc if sf == 1
                     else mp.exp(mp.loggamma(zc) + mp.loggamma(sf) - mp.loggamma(zc + sf)))
                out.append(k)
        return [(+k)._mpc_ for k in out]


def test_kernel_chain_is_its_operator_form_bit_for_bit(prec):
    for z, s, count in _gamma_ratio_families(prec):
        chain = [k._mpc_ for k in _fresh_chain(z, s, count, prec)]
        assert chain == _chain_by_operators(z, s, count, prec), (z, s)


def test_kernel_chain_at_other_precisions():
    for bits in (53, 113, 512):
        prec = PrecisionConfig(bits)
        with working_precision(prec):
            z = mp.mpf(12) * mp.mpf(2.885390081777927)
        assert _fresh_chain(z, 1, 41, prec) == [gamma_ratio(z, n, 1, prec) for n in range(41)]


def test_kernel_chain_preconditions():
    assert _fresh_chain(2, 1, 0, None) == []
    with pytest.raises(DomainError):
        _fresh_chain(2, 0, 3, None)  # s = 0: the n = 0 element is Gamma(0)
    with pytest.raises(DomainError):
        _fresh_chain(2, -1, 3, None)
    with pytest.raises(PoleError):
        _fresh_chain(0, 1, 3, None)
    with pytest.raises(PoleError):
        _fresh_chain(-3, mp.mpf(1) / 2, 3, None)
    with pytest.raises(PoleError):
        _fresh_chain(mp.mpf(-5) / 2, mp.mpf(1) / 2, 3, None)  # z + s = -2


@settings(max_examples=40, deadline=None)
@given(st.complex_numbers(min_magnitude=0.1, max_magnitude=50,
                          allow_nan=False, allow_infinity=False))
def test_gamma_ratio_functional_equation(z):
    # Gamma(z) Gamma(2) / Gamma(z + 2) = 1/(z(z + 1)) in the right
    # half-plane: offset 2 starts from the log-gamma difference, whose
    # roundoff the guard bits keep below one ulp; the check runs with guard
    # bits too, so it measures only the kernel's own rounding
    if z.real <= 0.05:
        z = complex(abs(z.real) + 0.1, z.imag)
    prec = PrecisionConfig(256)
    with working_precision(prec):
        zc = mp.mpc(z)
        k = gamma_ratio(zc, 2, 0, prec)
        with mp.extraprec(64):
            assert abs(k * zc * (zc + 1) - 1) < 10 * mp.mpf(2) ** -256


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


def test_a_thread_keeps_its_precision_while_another_leaves_its_block():
    # no workprec fixture: the thread waits for the main thread's block, and
    # a block held around the join would never end
    seen, ambient = [], mp.mp.prec

    def other():
        with working_precision(PrecisionConfig(512)):
            time.sleep(0.3)
            seen.append(mp.mp.prec)

    with working_precision(PrecisionConfig(113)):
        thread = threading.Thread(target=other)
        thread.start()
        time.sleep(0.1)  # the thread enters while this block still runs
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert seen == [512]
    assert mp.mp.prec == ambient


def _correctly_rounded(x: Fraction, bits: int) -> Fraction:
    """x rounded to ``bits`` significant bits, to nearest with ties to even,
    in integer arithmetic."""
    p, q = abs(x.numerator), x.denominator
    e = p.bit_length() - q.bit_length() - bits  # p / q >= 2^(bits - 1 + e)
    while True:
        num, den = (p << -e, q) if e < 0 else (p, q << e)
        man, rem = divmod(num, den)
        if man < 1 << bits:
            break
        e += 1
    if 2 * rem > den or (2 * rem == den and man & 1):
        man += 1
    return (1 if x > 0 else -1) * man * Fraction(2) ** e


def test_as_mpf_rounds_a_fraction_once():
    # a numerator wider than the mantissa was rounded before the division,
    # a second rounding that left the quotient an ulp off
    rng = random.Random(20261019)
    values = [Fraction(rng.choice((1, -1)) * (rng.getrandbits(200) | 1 << 199),
                       rng.getrandbits(150) | 1 << 149) for _ in range(300)]
    for bits in (53, 256):
        with working_precision(PrecisionConfig(bits)):
            got = [as_mpf(x)._mpf_ for x in values]  # (sign, mantissa, exponent, bit count)
        for x, (sign, man, e, _) in zip(values, got):
            assert (-1) ** sign * man * Fraction(2) ** e == _correctly_rounded(x, bits), (x, bits)


def test_as_index_reads_what_operator_index_reads():
    assert as_index(3, "f") == 3 and type(as_index(True, "f")) is int
    assert as_index(5, "f", "m", 5) == 5
    for bad, low in ((4, 5), (-1, 0), (2.5, 0), (3.0, 0), ("3", 0), (None, 0),
                     (mp.mpf(3), 0), (Fraction(3), 0), (3 + 0j, 0)):
        with pytest.raises(DomainError, match=re.escape(f"f needs an integer m >= {low}")):
            as_index(bad, "f", "m", low)


def _z():
    return RamifiedPoint(12, 0)


# (function named, argument, floor, call with the index); a route that reads its
# index through another entry point is refused under that one's name
INDEX_ENTRY_POINTS = [
    ("PrecisionConfig", "mantissa_bits", 53, lambda bits: PrecisionConfig(bits)),
    ("gamma_ratio", "n", 0, lambda n: gamma_ratio(3, n, 1)),
    ("factorial_expansion", "N", 0, lambda N: factorial_expansion(euler_series(8), 1, N)),
    ("factorial_series_sum", "N", 0,
     lambda N: factorial_series_sum(factorial_expansion(euler_series(8), 1, 6), 3, N)),
    ("r_as", "n", 0, lambda n: r_as(1, 1, 1, n, 3)),
    ("r_fact", "N", 0, lambda N: r_fact(1, 1, 1, N, 3)),
    ("r_fact_asymptotic", "N", 1, lambda N: r_fact_asymptotic(1, 1, 1, N, 3)),
    ("b_bound", "n", 1, lambda n: b_bound(1, 1, 1, n)),
    ("bound_comparison_table", "n_max", 0, lambda n: bound_comparison_table(1, 1, 3, n)),
    ("branch_sum", "N", 0, lambda N: branch_sum(psi_series(20), 1, _z(), N)),
    ("generalized_coefficients", "n_max", 0,
     lambda n: generalized_coefficients(example2_series(10), n)),
    ("generalized_factorial_sum", "N", 0,
     lambda N: generalized_factorial_sum(example2_series(10), 1, _z(), N)),
    ("rotated_generalized_sum", "N", 0,
     lambda N: rotated_generalized_sum(example2_series(10), "0.5", 1, _z(), N)),
    ("r_as_ramified", "m", 1, lambda m: r_as_ramified(1, 1, 1, 3, _z(), m)),
    ("FormalSeries", "m", 1, lambda m: FormalSeries(m, [1, 2])),
    ("power", "m", 1, lambda m: power(_z(), 1, m)),
    ("partial_sum", "N", 0, lambda N: partial_sum(example2_series(10), _z(), N)),
    ("stirling_first", "n", 0, lambda n: stirling_first(n, 0)),
    ("stirling_first", "k", 0, lambda k: stirling_first(5, k)),
    ("d_coefficient_row", "j_max", 0, lambda j: d_coefficient_row(Fraction(1, 2), j)),
    ("d_coefficient_row", "j_max", 0, lambda j: d_coefficient_exact(Fraction(1, 2), j)),
    ("d_coefficient_row", "j_max", 0, lambda j: d_coefficient(Fraction(1, 2), j)),
    ("binomial_series", "m", 1, lambda m: binomial_series(m, 1, 1, 5)),
    ("binomial_series", "depth", 3, lambda depth: binomial_series(3, 1, 1, depth)),
    ("psi_scaled_coefficients", "depth", 0, lambda depth: psi_scaled_coefficients(depth)),
    ("psi_scaled_coefficients", "depth", 0, lambda depth: psi_series(depth)),
]


# a value below the floor, a fraction, a string, None (except where it means every
# stored coefficient) and an integral mpf
INDEX_CASES = [pytest.param(fn, name, low, call, bad, id=f"{fn}-{name}-{i}-{bad_id}")
               for i, (fn, name, low, call) in enumerate(INDEX_ENTRY_POINTS)
               for bad, bad_id in (("below", "below"), (2.5, "2.5"), ("3", "str"),
                                   (None, "None"), (mp.mpf(3), "mpf"))
               if bad is not None or fn not in ("factorial_expansion", "generalized_coefficients")]


@pytest.mark.parametrize("fn, name, low, call, bad", INDEX_CASES)
def test_every_index_is_an_integer_at_or_above_its_floor(fn, name, low, call, bad):
    with pytest.raises(DomainError, match=re.escape(f"{fn} needs an integer {name} >= {low}")):
        call(low - 1 if bad == "below" else bad)


@pytest.mark.parametrize("bad", [None, 1j, "x", float("nan"), float("inf"), -mp.inf,
                                 mp.mpf("0.5")])
@pytest.mark.parametrize("call, message", [
    (lambda v: binomial_series(1, v, 1, 5), "alpha and c must be finite rationals"),
    (lambda v: binomial_series(1, 1, v, 5), "alpha and c must be finite rationals"),
    (lambda v: d_coefficient_row(v, 3), "d_coefficient_row needs a finite rational r"),
    (lambda v: d_coefficient(v, 3), "d_coefficient_row needs a finite rational r"),
], ids=["alpha", "c", "d_coefficient_row", "d_coefficient"])
def test_every_exact_rational_is_read_by_fraction(call, message, bad):
    # each raised TypeError, ValueError or OverflowError, or passed an mpf through
    with pytest.raises(DomainError, match=re.escape(f"{message}, got {bad!r}")):
        call(bad)


def test_as_fraction_reads_exact_values_exactly():
    for x, want in ((3, Fraction(3)), (0.1, Fraction(0.1)), ("1/3", Fraction(1, 3)),
                    ("-2.5e-3", Fraction(-1, 400)), (Fraction(5, 7), Fraction(5, 7))):
        assert as_fraction(x, "unused") == want
    assert binomial_series(2, "1/2", 1, 8).coefficients == example2_series(8).coefficients


def test_indices_once_taken_silently_are_refused():
    # each of these returned a value or an object: m = 2 from 2.5, a kernel
    # exponent 1/1.5, an empty table, a bound at a fractional index, a_0..a_2 at depth 1
    silent = [(lambda: FormalSeries(2.5, [1, 2]), "FormalSeries needs an integer m >= 1"),
              (lambda: power(_z(), 1, 1.5), "power needs an integer m >= 1"),
              (lambda: bound_comparison_table(1, 1, 10 + 10j, -1),
               "bound_comparison_table needs an integer n_max >= 0"),
              (lambda: r_as(1, 1, 1, 2.5, 3), "r_as needs an integer n >= 0"),
              (lambda: b_bound(1, 1, 1, 2.5), "b_bound needs an integer n >= 1"),
              (lambda: r_fact_asymptotic(1, 1, 1, 2.5, 3),
               "r_fact_asymptotic needs an integer N >= 1"),
              (lambda: gamma_ratio(3, 2.5, 1), "gamma_ratio needs an integer n >= 0"),
              (lambda: binomial_series(3, 1, 1, 1), "binomial_series needs an integer depth >= 3")]
    for call, message in silent:
        with pytest.raises(DomainError, match=re.escape(message)):
            call()
