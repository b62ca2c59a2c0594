import json

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from borelsum import (DomainError, FormalSeries, GrowthEnvelope,
                      InsufficientCoefficientsError, PrecisionConfig,
                      RamifiedPoint, branch_split, dump_series, load_series,
                      partial_sum, power, rotate, scale, working_precision)


def test_ramified_point_validation():
    with pytest.raises(DomainError):
        RamifiedPoint(0, 1.0)
    with pytest.raises(DomainError):
        RamifiedPoint(-2, 0.0)
    for modulus, argument in ((mp.inf, 0), (mp.nan, 0), (1, mp.inf), (1, mp.nan)):
        with pytest.raises(DomainError, match="finite"):
            RamifiedPoint(modulus, argument)


@pytest.mark.parametrize("bad", [mp.nan, mp.inf, -mp.inf, mp.mpc(1, mp.inf), mp.mpc(mp.nan, 0),
                                 float("nan"), complex(0, float("-inf")), "inf"])
def test_a_series_refuses_a_non_finite_coefficient(bad):
    # once accepted: a least-term sum then returned a nan error estimate and
    # factorial_expansion a nan b_4, with no error
    with pytest.raises(DomainError, match="finite coefficients, got a_4 = "):
        FormalSeries(1, [0, 1, -1, 2, bad])
    with pytest.raises(DomainError, match="got a_0 = "):
        FormalSeries(3, [bad])


def test_a_point_keeps_the_mpf_it_is_given():
    with mp.workprec(256):
        modulus, argument = mp.mpf(12) + mp.mpf(1) / 3, mp.pi / 3
    # built at the ambient 53 bits, which would round 12 + 1/3 by ~6e-16
    z = RamifiedPoint(modulus, argument)
    assert z.modulus == modulus and z.argument == argument
    z = RamifiedPoint(12, 0.5)
    assert (type(z.modulus), type(z.argument)) == (mp.mpf, mp.mpf)
    assert z.modulus == 12 and z.argument == 0.5


def test_power_examples(workprec):
    eps = mp.mpf(2) ** -240
    assert abs(power(RamifiedPoint(4, 0), 1, 2) - 2) < eps
    # second sheet: (1, 2*pi)^(1/2) = e^(i pi) = -1
    assert abs(power(RamifiedPoint(1, 2 * mp.pi), 1, 2) + 1) < eps
    want = 4 * mp.exp(2j * mp.pi / 3)
    assert abs(power(RamifiedPoint(8, mp.pi), 2, 3) - want) < eps
    with pytest.raises(DomainError, match="power needs an integer m >= 1"):
        power(RamifiedPoint(8, 0), 2, 0)


@settings(max_examples=30, deadline=None)
@given(st.floats(0.01, 50), st.floats(-20, 20), st.integers(-9, 9), st.integers(1, 5))
def test_power_inverse_property(modulus, argument, k, m):
    prec = PrecisionConfig(128)
    with working_precision(prec):
        z = RamifiedPoint(modulus, argument)
        prod = power(z, k, m, prec) * power(z, -k, m, prec)
        assert abs(prod - 1) < 10 * mp.mpf(2) ** -120


def test_formal_series_validation(workprec):
    with pytest.raises(DomainError):
        FormalSeries(0, [1])
    with pytest.raises(DomainError):
        FormalSeries(1, [])
    f = FormalSeries(2, [1, 2, 3])
    assert f.n_max == 2
    with pytest.raises(InsufficientCoefficientsError):
        f.require_depth(3)


def test_rotate_identity_and_phase(workprec):
    eps = mp.mpf(2) ** -240
    f = FormalSeries(2, [0, 0, 1])
    assert all(abs(a - b) < eps for a, b in
               zip(rotate(f, 0).coefficients, f.coefficients))
    g = rotate(f, mp.pi / 3)
    assert abs(g.coefficients[2] - mp.exp(1j * mp.pi / 3)) < eps
    # a full turn of the cover is the identity
    h = rotate(f, 2 * mp.pi * f.m)
    assert all(abs(a - b) < eps for a, b in zip(h.coefficients, f.coefficients))
    with pytest.raises(DomainError, match="theta must be finite"):
        rotate(f, mp.inf)


def test_rotate_matches_substitution(workprec):
    # (rotate f)(z) = f(z e^(-i theta)) as functions, checked by evaluation
    f = FormalSeries(3, [2, 1, -0.5, 0.25, 1j, 3, -2])
    theta = mp.mpf("0.731")
    z = RamifiedPoint(7, mp.mpf("0.4"))
    lhs = partial_sum(rotate(f, theta), z, 6)
    zrot = RamifiedPoint(7, mp.mpf("0.4") - theta)
    rhs = partial_sum(f, zrot, 6)
    assert abs(lhs - rhs) < mp.mpf(2) ** -230


@settings(max_examples=25, deadline=None)
@given(st.floats(-10, 10), st.integers(1, 4),
       st.lists(st.complex_numbers(max_magnitude=100, allow_nan=False,
                                   allow_infinity=False), min_size=1, max_size=9))
def test_rotate_round_trip(theta, m, coeffs):
    prec = PrecisionConfig(128)
    with working_precision(prec):
        f = FormalSeries(m, coeffs)
        g = rotate(rotate(f, theta, prec), -theta, prec)
        for a, b in zip(g.coefficients, f.coefficients):
            assert abs(a - b) <= 10 * mp.mpf(2) ** -120 * max(1, abs(b))


def test_scale_examples(workprec):
    eps = mp.mpf(2) ** -240
    f1 = FormalSeries(1, [0, 1])
    assert abs(scale(f1, 2).coefficients[1] - 1) < eps  # lambda^(n-1) at n=1
    f3 = FormalSeries(3, [0, 0, 0, 0, 5])
    got = scale(f3, 2).coefficients[4]
    assert abs(got - 5 * mp.power(2, mp.mpf(1) / 3)) < eps
    g = scale(scale(f3, mp.mpf("3.7")), 1 / mp.mpf("3.7"))
    assert abs(g.coefficients[4] - 5) < 10 * mp.mpf(2) ** -250
    with pytest.raises(DomainError):
        scale(f1, -1)


def test_branch_split_index_map(workprec):
    a = [mp.mpc(k) for k in range(7)]  # a_0..a_6
    f = FormalSeries(3, a)
    a0, branches = branch_split(f)
    assert a0 == 0
    # branch 2 = (0, a_2, a_5)
    b2 = branches[1].coefficients
    assert len(b2) == 3 and b2[1] == 2 and b2[2] == 5
    assert branches[0].m == 1


def test_branch_split_m1(workprec):
    f = FormalSeries(1, [7, 1, 2, 3])
    a0, branches = branch_split(f)
    assert a0 == 7 and len(branches) == 1
    assert branches[0].coefficients == (0, 1, 2, 3)


def test_branch_reassembly_roundtrip(workprec):
    # f(z) = a_0 + sum_l z^((m-l)/m) f_l(z.) reproduces the partial sum
    f = FormalSeries(3, [1, 2, -1, 0.5, 3, -2, 0.25])
    z = RamifiedPoint(2, 0)
    a0, branches = branch_split(f)
    direct = partial_sum(f, z, 6)
    zdot = z.projection()
    total = mp.mpc(a0)
    for l, fl in enumerate(branches, start=1):
        val = mp.fsum(fl.coefficients[j] * zdot ** -j
                      for j in range(len(fl)))
        total += power(z, 3 - l, 3) * val
    assert abs(total - direct) < mp.mpf(2) ** -230


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 5), st.integers(1, 30))
def test_branch_split_coefficient_identity(m, depth):
    f = FormalSeries(m, [complex(n, -n) for n in range(depth + 1)])
    _, branches = branch_split(f)
    for l in range(1, m + 1):
        fl = branches[l - 1]
        for j in range(1, len(fl)):
            assert fl.coefficients[j] == f.coefficients[l + m * (j - 1)]
    # every coefficient lands in exactly one branch
    assert sum(len(b) - 1 for b in branches) == depth


def test_partial_sum_examples(workprec):
    f = FormalSeries(1, [0, 1, -1])  # Euler head: a_1 = 1, a_2 = -1
    z = RamifiedPoint(3, 0)
    assert abs(partial_sum(f, z, 0)) == 0
    got = partial_sum(f, z, 2)
    assert abs(got - (mp.mpf(1) / 3 - mp.mpf(1) / 9)) < mp.mpf(2) ** -240
    with pytest.raises(InsufficientCoefficientsError):
        partial_sum(f, z, 3)
    with pytest.raises(DomainError, match="partial_sum needs an integer N >= 0"):
        partial_sum(f, z, -1)


def test_partial_sum_psi_head(workprec):
    from borelsum import psi_series
    f = psi_series(3)
    z = RamifiedPoint(12, 0)
    got = partial_sum(f, z, 3)
    c = mp.cbrt
    want = (1 - c(mp.mpf(128) / 3) / c(12) + c(mp.mpf(2048) / 9) / c(144)
            - c(mp.mpf(34328125) / 373248) / 12)
    assert abs(got - want) < mp.mpf(2) ** -230


def test_partial_sum_keeps_the_callers_precision():
    # above the 256-bit default every power z^(-k/m) must run at 512 bits
    prec = PrecisionConfig(512)
    with working_precision(prec):
        f = FormalSeries(3, [mp.mpf(k + 1) / 7 for k in range(31)])
        z = RamifiedPoint(12, mp.mpf(3) / 10)
        got = partial_sum(f, z, 30, prec)
        w = 1 / mp.cbrt(z.projection(prec))  # principal root: arg z / 3
        want = mp.fsum(a * w ** k for k, a in enumerate(f.coefficients))
        assert abs(got - want) < mp.mpf(2) ** -490 * abs(want)


def test_growth_envelope_validation():
    GrowthEnvelope(A=1, B=1, lam=2.0)
    GrowthEnvelope(A=1, B=1, lam=float("inf"), domain="ramified")
    nan, inf = float("nan"), float("inf")
    for bad in ({"A": 0}, {"B": -1}, {"lam": 0}, {"lam": -2.0},
                {"A": nan}, {"B": nan}, {"lam": nan}, {"domain": "strip"},
                {"domain": "nonsense"}, {"A": inf}, {"B": inf}, {"lam": -inf}):
        with pytest.raises(DomainError):
            GrowthEnvelope(**{"A": 1, "B": 1, "lam": 2.0, **bad})
    with pytest.raises(TypeError):  # lam has no default
        GrowthEnvelope(A=1, B=1)


@pytest.mark.parametrize("bad", ["x", None, 1j, float("nan"), 0, -1])
@pytest.mark.parametrize("name", ["A", "B", "lam"])
def test_growth_envelope_refuses_what_is_no_positive_number(name, bad):
    with pytest.raises(DomainError, match=f"^GrowthEnvelope needs (finite )?positive .*{name}"):
        GrowthEnvelope(**{"A": 1, "B": 1, "lam": 2.0, name: bad})


def test_series_json_roundtrip(tmp_path, prec):
    with working_precision(prec):
        # a coefficient that does not survive a double round-trip
        c = mp.mpf("0.12345678901234567890123456789012345678901234567890")
        f = FormalSeries(2, [1, c, mp.mpc("1e-40", "2.5")])
        path = str(tmp_path / "series.json")
        dump_series(f, path)
        g = load_series(path, prec)
        assert g.m == 2 and len(g) == 3
        assert abs(g.coefficients[1] - c) < mp.mpf("1e-60")
        assert abs(g.coefficients[2] - f.coefficients[2]) < mp.mpf("1e-60")
    # from mpmath's default context a file still reaches the working precision:
    # the one written above, and one written and read back there, exactly
    g = load_series(path, prec)
    with working_precision(prec):
        assert abs(g.coefficients[1] - c) < mp.mpf("1e-60")
    dump_series(f, path, prec)
    assert load_series(path, prec).coefficients == f.coefficients


@pytest.mark.parametrize("content", [
    b'{not json',
    b'{"m": 2}',
    b'{"m": 1, "coefficients": [["1"]]}',
    b'{"m": 1, "coefficients": [["1", "0"], ["abc", "0"]]}',
    b'{"m": 1, "coefficients": [[null, "0"]]}',
    b'{"m": 1, "coefficients": [["1", {}]]}',
    b'{"m": true, "coefficients": [["1", "0"]]}',
    b'{"m": 1, "coefficients": [["1", "0"]], "note": "\xff\xfe"}',
    b'{"m": 1, "coefficients": [["1", "0"], ["inf", "0"]]}',
    b'{"m": 1, "coefficients": [["1", "0"], ["0", "nan"]]}',
], ids=["not-json", "no-coefficients", "not-a-pair", "word", "null", "object", "bool-m",
        "not-utf8", "inf", "nan"])
def test_load_series_rejects_malformed_files(tmp_path, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    with pytest.raises(DomainError):
        load_series(str(path))


def test_load_series_refuses_more_than_max_depth_plus_one_coefficients(tmp_path):
    # the library holds a file to the CLI's length limit, with the CLI's message
    from borelsum import series
    path = tmp_path / "long.json"
    rows = [["1", "0"]] * (series.MAX_DEPTH + 2)
    path.write_text(json.dumps({"m": 1, "coefficients": rows[1:]}))
    assert load_series(str(path)).n_max == series.MAX_DEPTH
    path.write_text(json.dumps({"m": 1, "coefficients": rows}))
    with pytest.raises(DomainError, match=f"series file has {series.MAX_DEPTH + 2} "
                                          f"coefficients, over the limit {series.MAX_DEPTH + 1}"):
        load_series(str(path))
