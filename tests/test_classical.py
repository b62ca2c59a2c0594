import gc
import pickle
import sys
import threading
import tracemalloc
import warnings
from collections import Counter
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, seed, settings, strategies as st
from mpmath.libmp import from_int, mpf_div, mpf_pos, mpf_sum

from borelsum import (PSI_LAMBDA_SUP, DomainError, FactorialExpansion, FormalSeries,
                      GrowthEnvelope, InsufficientCoefficientsError, PrecisionConfig,
                      RamifiedPoint, SummationResult, b_bound, binomial_series,
                      bound_comparison_table, branch_split, d_coefficient_row, euler_series,
                      example2_series, factorial_expansion, factorial_series_sum,
                      gamma_ratio, generalized_coefficients, generalized_factorial_sum,
                      laplace_quadrature, least_term_index, least_term_sum_ramified,
                      partial_sum, psi_series, r_as, r_fact, r_fact_asymptotic, rotate,
                      scale, stirling_transform, working_precision)
from borelsum import classical, combinatorics, numerics
from borelsum.classical import _CoefficientRow, _TermRow
from borelsum.combinatorics import _next_antidiagonal
from borelsum.numerics import _Chain, as_mpc, as_mpf
from borelsum.oracle import BUILTIN_EVALUATORS
from borelsum.series import _homothety, _rotation

from conftest import exact, rounded, sampled_region_envelope_euler

# ---------------------------------------------------------------------------
# Stirling transform
# ---------------------------------------------------------------------------


def test_transform_one_over_z(workprec):
    b = stirling_transform([1, 0, 0, 0, 0])
    assert abs(b[0] - 1) == 0
    assert all(abs(x) == 0 for x in b[1:])


def test_transform_of_no_coefficients_is_a_domain_error():
    # the rows of factorial_expansion need at least a_1
    with pytest.raises(DomainError):
        stirling_transform([])


def test_transform_one_over_z2(workprec):
    # s(n,1) = (-1)^(n-1) (n-1)! gives b_n = 1/n
    b = stirling_transform([0, 1] + [0] * 10)
    assert abs(b[0]) == 0
    for n in range(1, len(b)):
        assert abs(b[n] - mp.mpf(1) / n) < mp.mpf(2) ** -240


def test_transform_euler_series(workprec):
    # Taylor coefficients of 1/(1 - ln s) in powers of (1-s)
    f = euler_series(8)
    b = stirling_transform(f.coefficients[1:])
    expected = [1, -1, mp.mpf(1) / 2, -mp.mpf(1) / 3]
    for got, want in zip(b, expected):
        assert abs(got - want) < mp.mpf(2) ** -240


@settings(max_examples=20, deadline=None)
@given(st.lists(st.complex_numbers(max_magnitude=10, allow_nan=False,
                                   allow_infinity=False), min_size=2, max_size=10),
       st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False),
       st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False))
def test_transform_linearity(a, alpha, beta):
    prec = PrecisionConfig(192)
    with working_precision(prec):
        am = [mp.mpc(x) for x in a]
        alpham, betam = mp.mpc(alpha), mp.mpc(beta)
        a2 = [x * mp.mpc(1, 1) + 2 for x in am]
        lhs = stirling_transform([alpham * x + betam * y for x, y in zip(am, a2)], prec)
        t1 = stirling_transform(am, prec)
        t2 = stirling_transform(a2, prec)
        scalemax = max(1, max(abs(x) for x in lhs))
        for n in range(len(lhs)):
            rhs = alpham * t1[n] + betam * t2[n]
            assert abs(lhs[n] - rhs) <= 100 * scalemax * mp.mpf(2) ** -192


def test_transform_condition_number(workprec):
    f = euler_series(30)
    cond = factorial_expansion(f, 1, 29).condition
    assert all(c >= 1 for c in cond)
    # the Euler transform cancels heavily at depth; condition grows
    assert cond[25] > cond[2]


# ---------------------------------------------------------------------------
# the coefficient row against its exact sums, bit for bit
# ---------------------------------------------------------------------------


def _unsigned_stirling(n_max):
    """|s(n, k)| for n <= n_max by |s(n+1, k)| = n |s(n, k)| + |s(n, k-1)|: rows of
    this file's own, as a fresh walk of ``stirling_first`` per weight would cost
    O(n^2) each."""
    rows = [[1]]
    for n in range(n_max):
        prev = [*rows[-1], 0]
        rows.append([n * prev[k] + (prev[k - 1] if k else 0) for k in range(n + 2)])
    return rows


def _rows_by_exact_sums(f, lam, theta, n_max, prec):
    """(c_n, condition number of c_n) for n = 1..n_max as Fraction sums: on the
    coefficients a_l of ``scale(rotate(f, theta), lam)``, each weight w = P/Q is
    |s(n/m-1, l/m-1)| (``_unsigned_stirling``) at integer l/m and the d-row entry
    d_{l/m,(n-l)/m} at fractional l/m; sum w Re a_l, sum w Im a_l and sum |w| (|Re a_l| + |Im a_l|)
    are exact, each rounded once, then divided by Gamma(n/m)."""
    with working_precision(prec):
        a = scale(rotate(f, theta, prec) if theta else f, lam, prec).coefficients
        m, rows, stirling = f.m, [], _unsigned_stirling(n_max // f.m)
        for n in range(1, n_max + 1):
            re = im = gross = Fraction(0)
            for l in range(n - (n - 1) // m * m, n + 1, m):
                w = (Fraction(stirling[n // m - 1][l // m - 1]) if l % m == 0 else
                     d_coefficient_row(Fraction(l, m), (n - l) // m)[-1])
                x, y = exact(a[l].real), exact(a[l].imag)
                re, im, gross = re + w * x, im + w * y, gross + abs(w) * (abs(x) + abs(y))
            gamma = mp.gamma(mp.mpf(n) / m)
            c, gross = mp.mpc(rounded(re), rounded(im)) / gamma, rounded(gross) / gamma
            rows.append((c, gross / abs(c) if c != 0 else mp.inf if gross != 0 else mp.mpf(1)))
        return rows


def _row(f, lam, theta, n_max, prec):
    with working_precision(prec):
        lam, theta = as_mpf(lam), theta and as_mpf(theta)
    return _CoefficientRow(f, lam, theta, prec).upto(n_max)[1:]


def _assert_row_is_the_exact_sums(f, lam, theta, n_max, prec):
    row, want = _row(f, lam, theta, n_max, prec), _rows_by_exact_sums(f, lam, theta, n_max, prec)
    assert _raw(row) == _raw(want)


def _raw(row):
    """The raw tuples of a coefficient row's (c_n, cond(c_n)) pairs."""
    return [(c._mpc_, k._mpf_) for c, k in row]


def _extreme_series(depth, prec):
    # every third a_k is 0, the others alternate 10^300 and 10^-300: the products of
    # one c_n lie far more than 2 x prec bits apart, where a rounded mpf_sum drops some
    with working_precision(prec):
        return FormalSeries(1, [0] + [0 if k % 3 == 0 else
                                      (-1) ** k * mp.mpf(10) ** (300 * (-1) ** k)
                                      for k in range(1, depth + 1)])


@pytest.mark.parametrize("bits", [53, 256, 384])
def test_coefficient_rows_are_the_exact_sums_rounded_once(bits):
    prec = PrecisionConfig(bits)
    euler = euler_series(202, prec)  # the depth of the benchmark's Euler sums
    with working_precision(prec):
        i_euler = FormalSeries(1, [1j * a for a in euler.coefficients])
    _assert_row_is_the_exact_sums(euler, 1, None, 202 if bits == 256 else 80, prec)
    _assert_row_is_the_exact_sums(euler, "0.6", "0.3", 80, prec)  # complex a_l
    _assert_row_is_the_exact_sums(i_euler, 1, None, 80, prec)  # zero real parts
    _assert_row_is_the_exact_sums(_extreme_series(60, prec), 1, None, 60, prec)
    for branch in branch_split(psi_series(120, prec))[1]:
        _assert_row_is_the_exact_sums(branch, PSI_LAMBDA_SUP, None, 40, prec)
    # m > 1: integer l/m read the Stirling rows, fractional l/m the d-rows
    _assert_row_is_the_exact_sums(example2_series(40, prec), "0.6", mp.pi / 3, 40, prec)
    _assert_row_is_the_exact_sums(psi_series(60, prec), PSI_LAMBDA_SUP, None, 60, prec)
    _assert_row_is_the_exact_sums(psi_series(60, prec), PSI_LAMBDA_SUP, "0.5", 60, prec)
    _assert_row_is_the_exact_sums(binomial_series(3, -1, "1/2", 60, prec), 1, None, 60, prec)
    _assert_row_is_the_exact_sums(binomial_series(4, "1/2", 1, 60, prec), "0.7", "0.4", 60, prec)


def test_either_order_of_the_parts_gives_the_rows_bits():
    # at 53 bits Im a_2 + Re a_3 is an exact tie, and a rounded mpf_sum keeps a part only
    # within 2 x 53 bits of the last bit summed so far: Re a_2 = 2^-107 is that close to
    # Re a_3 = 2^-1 but not to Im a_2 = 2^53 - 2.  Rounded in term order, Im a_2 drops
    # Re a_2 and the tie rounds to even; Re a_2, Re a_3, Im a_2 keeps Re a_2 and rounds
    # up.  Summed exactly, both orders are one value, which the row rounds once
    prec = PrecisionConfig(53)
    with working_precision(prec):
        a2, a3 = mp.mpc(mp.mpf(2) ** -107, 2 ** 53 - 2), mp.mpc(mp.mpf("0.5"), 0)
        f = FormalSeries(1, [0, 1, a2, a3])
        parts = [a2.real._mpf_, a2.imag._mpf_, a3.real._mpf_]
        orders = parts, parts[0::2] + parts[1:2]
        in_order, grouped = (mpf_sum(o, *mp.mp._prec_rounding, absolute=True) for o in orders)
        exact_sums = {mpf_sum(o, 0, absolute=True) for o in orders}
        assert in_order != grouped and len(exact_sums) == 1
        c, cond = _row(f, 1, None, 3, prec)[2]  # c_3 = b_2 = (a_2 + a_3) / 2!
        gross = mp.make_mpf(mpf_pos(exact_sums.pop(), *mp.mp._prec_rounding)) / 2
        assert cond._mpf_ == (gross / abs(c))._mpf_
    _assert_row_is_the_exact_sums(f, 1, None, 3, prec)


_PARTS = st.one_of(st.just((0, 0)),  # (mantissa, exponent) of one part
                   st.tuples(st.integers(-2 ** 70, 2 ** 70), st.integers(-1500, 1500)))


@seed(24)
@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_PARTS, _PARTS), min_size=2, max_size=24), st.sampled_from([1, 2, 3]),
       st.sampled_from([1, "0.6", 2.885390081777927]), st.sampled_from([None, "0.3"]),
       st.sampled_from([53, 256]))
def test_drawn_coefficient_rows_are_the_exact_sums_rounded_once(parts, m, lam, theta, bits):
    # at m = 2 and 3 the fractional l/m read the d-rows, and theta != 0 rotates a_l
    # by a phase of l/m
    prec = PrecisionConfig(bits)
    with mp.workprec(400):  # every drawn part is exact, then rounds once into the series
        coefficients = [mp.mpc(mp.ldexp(*re), mp.ldexp(*im)) for re, im in parts]
    with working_precision(prec):
        f = FormalSeries(m, coefficients)
    _assert_row_is_the_exact_sums(f, lam, theta, len(parts) - 1, prec)


def test_a_coefficient_row_rounds_once_per_coefficient(monkeypatch):
    # each c_n is three exact sums (Re, Im and the gross sum) over one denominator,
    # each rounded by one division, on the Stirling rows (Euler) and on the d-rows
    # (rotated example2); no weighted part is rounded on its own
    divisions, products = [], []
    div = classical.mpf_div
    monkeypatch.setattr(classical, "mpf_div", lambda *a: (divisions.append(a), div(*a))[1])
    for name, module in list(sys.modules.items()):
        if name.startswith(("mpmath", "borelsum")) and hasattr(module, "mpf_mul_int"):
            monkeypatch.setattr(module, "mpf_mul_int", lambda *a, mul=module.mpf_mul_int, **k:
                                (products.append(a), mul(*a, **k))[1])
    prec = PrecisionConfig(256)
    euler, ex2 = euler_series(61, prec), example2_series(41, prec)
    with working_precision(prec):
        lam, theta = mp.mpf("0.6"), mp.pi / 3
    for f, lam, theta, depth in ((euler, mp.mpf(1), None, 60), (ex2, lam, theta, 40)):
        divisions.clear()
        _CoefficientRow(f, lam, theta, prec).upto(depth)
        assert len(divisions) == 3 * depth
    assert products == []


def test_a_rotated_example2_row_runs_the_power_recurrence_on_its_base_row_only(monkeypatch):
    # the d-rows 1/2, 3/2, ..., 149/2 that c_1..c_151 read are one triangle: its
    # base row 1/2 steps the power recurrence to j = 75, every entry above it is one
    # integer step of an antidiagonal, and a coefficient step steps and reads those
    # integers and builds no Fraction (a power recurrence per row made 2775 steps)
    steps, built, inside = [], [], [False]
    step, row_step, new = combinatorics._DRow.step, _CoefficientRow.step, Fraction.__new__

    def counted_row_step(self, n):
        inside[0] = True
        try:
            return row_step(self, n)
        finally:
            inside[0] = False

    def counted_new(cls, *args, **kwargs):
        if inside[0]:
            built.append(args)
        return new(cls, *args, **kwargs)

    prec = PrecisionConfig(256)
    f = example2_series(151, prec)
    with working_precision(prec):
        row = _CoefficientRow(f, mp.mpf("0.6"), mp.pi / 3, prec)
    monkeypatch.setattr(combinatorics, "_BASE_ROWS", {})
    monkeypatch.setattr(combinatorics._DRow, "step",
                        lambda self, n: (steps.append((self.r, n)), step(self, n))[1])
    monkeypatch.setattr(_CoefficientRow, "step", counted_row_step)
    monkeypatch.setattr(Fraction, "__new__", counted_new)
    row.upto(151)
    assert len(steps) <= 76 and {r for r, _ in steps} == {Fraction(1, 2)}
    assert built == [] and len(row.values) == 152
    assert list(combinatorics._BASE_ROWS) == [Fraction(1, 2), Fraction(1)]


@pytest.mark.parametrize("series, lam, theta", [
    (lambda p: example2_series(151, p), "0.6", "pi/3"),
    (lambda p: psi_series(151, p), PSI_LAMBDA_SUP, "0.5"),
    (lambda p: binomial_series(4, "1/2", 1, 151, p), "0.7", "0.4"),
    (lambda p: binomial_series(5, "3/2", 1, 151, p), "1.3", None),
], ids=["example2", "psi", "binomial-4", "binomial-5"])
def test_coefficient_rows_grown_in_steps_are_fresh_rows_and_the_exact_sums(
        monkeypatch, series, lam, theta):
    # m = 2..5: the triangle grown across three requests, and from nothing at once,
    # gives every c_n and condition number the Fraction sums give, rounded once
    prec = PrecisionConfig(256)
    f = series(prec)
    with working_precision(prec):
        lam, theta = as_mpf(lam), theta and (mp.pi / 3 if theta == "pi/3" else as_mpf(theta))
    monkeypatch.setattr(combinatorics, "_BASE_ROWS", {})
    grown = _CoefficientRow(f, lam, theta, prec)
    for n in (11, 41, 151):
        grown.upto(n)
    monkeypatch.setattr(combinatorics, "_BASE_ROWS", {})
    fresh = _row(f, lam, theta, 151, prec)
    assert _raw(grown.values[1:]) == _raw(fresh) == _raw(_rows_by_exact_sums(f, lam, theta,
                                                                             151, prec))


class _InterleavedRow(_CoefficientRow):
    """The coefficient step with Re and Im of every weighted a_l interleaved in
    one part list, zero parts kept for ``mpf_sum`` to skip: the form the row's
    two lists of nonzero parts replace."""

    def step(self, n):
        m, a = self.m, self.a
        an = self.coefficients[n]
        if self.theta is not None:
            an = an * _rotation(self.theta, n, m)
        a.append(_homothety(self.lam, n, m) * an)
        s = (n - 1) // m
        l0 = n - s * m
        base = self.bases[l0]
        walk = self.walks[l0] = _next_antidiagonal(base, s, self.walks[l0]) if s else [1]
        parts = [(sign ^ (k < 0), man * abs(k), exp, bc + k.bit_length())
                 for k, x in zip(walk, a[l0::m]) if k for sign, man, exp, bc in x._mpc_]
        prec, rnd = mp.mp._prec_rounding
        den = from_int(base.den[s])
        re = mpf_div(mpf_sum(parts[0::2], 0), den, prec, rnd)
        im = mpf_div(mpf_sum(parts[1::2], 0), den, prec, rnd)
        gross = mpf_div(mpf_sum(parts, 0, absolute=True), den, prec, rnd)
        gamma = mp.gamma(mp.mpf(n) / m)
        c = mp.make_mpc((re, im)) / gamma
        gross = mp.make_mpf(gross) / gamma
        return c, gross / abs(c) if c != 0 else mp.inf if gross != 0 else mp.mpf(1)


@pytest.mark.parametrize("series, lam, theta", [
    (euler_series, 1, None),
    (euler_series, "0.6", "0.3"),
    (lambda depth, p: FormalSeries(1, [1j * a for a in euler_series(depth, p).coefficients]),
     1, None),
    (example2_series, "0.6", "pi/3"),
], ids=["euler", "euler-rotated", "i-euler", "example2-rotated"])
def test_a_row_of_nonzero_parts_is_the_interleaved_step_bit_for_bit(series, lam, theta):
    # Euler's imaginary parts and i Euler's real parts are all zero, the rotated rows
    # have both parts nonzero: dropping the zeros changes no c_n or condition number
    prec = PrecisionConfig(256)
    with working_precision(prec):
        f = series(61, prec)
        lam, theta = as_mpf(lam), theta and (mp.pi / 3 if theta == "pi/3" else as_mpf(theta))
    rows = [[(c._mpc_, k._mpf_) for c, k in row(f, lam, theta, prec).upto(60)[1:]]
            for row in (_CoefficientRow, _InterleavedRow)]
    assert rows[0] == rows[1]


def _traced(build):
    """(peak, left) in bytes that tracemalloc traces while ``build()`` runs and
    once it has returned and its garbage is collected, over what it traced before."""
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        build()
        gc.collect()
        left, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - start, left - start


@pytest.mark.parametrize("build", [
    lambda p: factorial_expansion(euler_series(401, p), 1, 400, p),
    lambda p: generalized_coefficients(example2_series(600, p), 600, p),
], ids=["euler-factorial", "example2-generalized"])
def test_a_deep_coefficient_row_keeps_one_antidiagonal_per_class(build):
    # c_n reads one antidiagonal of its class, so a row keeps the last one of each:
    # the Euler row to 400 peaks near 0.9 MB and the example2 row to 600 near
    # 1.3 MB, where the Stirling triangle kept for the process held 9-16 MB at
    # n = 400 (~50 MB at 600) and example2's d-rows ~10 MB.  Once the series is
    # dropped only the shared base rows are left, O(n) integers per class
    peak, left = _traced(lambda: build(PrecisionConfig(256)))
    assert peak < 3e6
    assert left < 0.5e6


# ---------------------------------------------------------------------------
# factorial series evaluation
# ---------------------------------------------------------------------------


def test_factorial_sum_one_over_z_exact(workprec):
    # series 1/z: b = (1, 0, ...), so any truncation equals
    # Gamma(z)Gamma(1)/Gamma(z+1) = 1/z exactly
    f = FormalSeries(1, [0, 1, 0, 0])
    e = factorial_expansion(f, 1)
    res = factorial_series_sum(e, mp.mpf("2.5"), 0)
    assert abs(res.estimate - mp.mpf(1) / mp.mpf("2.5")) < mp.mpf(2) ** -240
    assert res.method == "factorial"


def test_factorial_sum_one_over_z2(workprec):
    # value 1/9 at z = 3; the series converges like N^-3, so at N = 40 the
    # remainder 2/(3 (N+1)(N+2)(N+3)) ~ 9e-6 is the honest target
    f = FormalSeries(1, [0, 0, 1] + [0] * 43)
    e = factorial_expansion(f, 1)
    res = factorial_series_sum(e, mp.mpf(3), 40)
    err = abs(res.estimate - mp.mpf(1) / 9)
    tail = mp.mpf(2) / (3 * 41 * 42 * 43)
    assert abs(err - tail) < mp.mpf("1e-9")
    assert err < 3 * res.heuristic_error


def test_factorial_sum_terminating_series_converges(workprec):
    # terminating series sum_{k<=5} a_k/z^k: the Borel transform is a
    # polynomial, valid on every scaled region, so a large lambda makes the
    # factorial series converge fast enough to check 1e-15 agreement at z=3
    coeffs = [0, 2, -1, mp.mpf("0.5"), 3, -2]
    f = FormalSeries(1, coeffs + [0] * 100)
    direct = partial_sum(f, RamifiedPoint(3, 0), 5)
    e = factorial_expansion(f, 8)
    res = factorial_series_sum(e, mp.mpf(3), 90)
    assert abs(res.estimate - direct) / abs(direct) < mp.mpf("1e-15")


def test_factorial_sum_vs_oracle_euler(workprec, prec):
    f = euler_series(130)
    oracle = laplace_quadrature(BUILTIN_EVALUATORS["euler"], 0, mp.mpf(3), 1e-14, prec)
    e = factorial_expansion(f, 1)
    res = factorial_series_sum(e, mp.mpf(3), 60)
    # N^(-z-1)-type convergence: ~7e-8 at N = 60
    assert abs(res.estimate - oracle) < mp.mpf("3e-7")
    assert abs(res.estimate - oracle) < 3 * res.heuristic_error


def test_factorial_heuristic_is_calibrated_on_euler(workprec, prec):
    # the first-omitted estimate lies within 1x-10x of the true error
    f = euler_series(202)
    e = factorial_expansion(f, 1)
    for z in (mp.mpf(3), mp.mpf("2.5"), mp.mpf("8.75") * mp.exp(-0.25j), 5 * mp.exp(1j)):
        oracle = laplace_quadrature(BUILTIN_EVALUATORS["euler"], 0, z, prec=prec)
        for N in (10, 50, 100, 200):
            res = factorial_series_sum(e, z, N)
            ratio = res.heuristic_error / abs(res.estimate - oracle)
            assert 1 <= ratio <= 10, (z, N, ratio)
            assert res.diverging is False


def test_factorial_sum_does_not_flag_a_dip(workprec, prec):
    # at lambda = 1.35, z = 3 the even terms |K_n b_n| cross zero near n = 96
    # (7e-14 between neighbours near 2e-11) while the sum keeps converging
    f = euler_series(202)
    e = factorial_expansion(f, mp.mpf("1.35"))
    oracle = laplace_quadrature(BUILTIN_EVALUATORS["euler"], 0, mp.mpf(3), prec=prec)
    errors = []
    for N in (90, 100, 110, 150, 200):
        res = factorial_series_sum(e, mp.mpf(3), N)
        assert res.diverging is False, N
        errors.append(abs(res.estimate - oracle))
    assert errors == sorted(errors, reverse=True)


def test_factorial_sum_flags_a_transform_singular_on_the_ray(workprec):
    # a_k = (k-1)!: the Borel transform 1/(1 - zeta) has its pole on the ray,
    # so the factorial series diverges and its terms grow past the smallest
    f = FormalSeries(1, [0] + [mp.factorial(k - 1) for k in range(1, 63)])
    e = factorial_expansion(f, 1)
    flags = {N: factorial_series_sum(e, mp.mpf(3), N).diverging for N in (10, 30, 60)}
    assert flags == {10: False, 30: True, 60: True}


def test_factorial_sum_insufficient_depth(workprec):
    f = euler_series(10)
    e = factorial_expansion(f, 1)  # b_0..b_9
    with pytest.raises(InsufficientCoefficientsError):
        factorial_series_sum(e, mp.mpf(3), 9)  # estimate needs b_10


def test_factorial_sum_lambda_warning(workprec):
    f = euler_series(12)
    env = GrowthEnvelope(A=1, B=0.1, lam=1 / mp.log(2), domain="region")
    e = factorial_expansion(f, 2.0)  # beyond 1/ln 2 = 1.4427
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        factorial_series_sum(e, mp.mpf(3), 5, envelope=env)
    assert any("exceeds the envelope" in str(w.message) for w in caught)


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def test_r_as_plugin_values(workprec):
    # n=0, A=B=r=1, z=2: A e^B 0!/1 / (1 * (2-1)) = e
    assert abs(r_as(1, 1, 1, 0, mp.mpf(2)) - mp.e) < mp.mpf(2) ** -240
    v1 = r_as(0.5, 1, 1, 7, mp.mpc(10, 10))
    v2 = r_as(0.5, 2, 1, 7, mp.mpc(10, 10))
    assert abs(v2 - 2 * v1) < mp.mpf(2) ** -200 * v2  # linear in A
    with pytest.raises(DomainError):
        r_as(1, 1, 5, 3, mp.mpf(4))  # Re z <= B


def test_a_non_oracle_result_needs_a_bound_or_an_error():
    with pytest.raises(DomainError, match="need a bound or an error estimate"):
        SummationResult(estimate=mp.mpc(1), N=3, method="factorial")
    assert SummationResult(estimate=mp.mpc(1), N=0, method="oracle").heuristic_error is None


def test_r_fact_reduces_to_unscaled(workprec):
    z = mp.mpc(10, 10)
    unscaled = (mp.mpf(1) / mp.power(1, 1)
                * mp.power(7 + 2, 7 + 2) / mp.power(8, 7)
                * abs(mp.gamma(z) * mp.gamma(8) / mp.gamma(z + 8))
                / (mp.re(z) - 1))
    assert abs(r_fact(1, 1, 1, 7, z) - unscaled) / unscaled < mp.mpf(2) ** -200


def test_r_fact_large_N_no_overflow(workprec):
    v = r_fact(1, 1, 1, 10 ** 4, mp.mpf(10))
    assert mp.isfinite(v) and v > 0


def test_r_fact_asymptotic_consistency(workprec):
    # the asymptotic equivalent is within 5% at N = 1e4 (A = B = lambda = 1, z = 10)
    z = mp.mpf(10)
    ratio = r_fact(1, 1, 1, 10 ** 4, z) / r_fact_asymptotic(1, 1, 1, 10 ** 4, z)
    assert mp.mpf("0.95") < ratio < mp.mpf("1.05")
    # lambda = B = 1 prefactor is A*e
    assert abs(r_fact_asymptotic(1, 3, 1, 1, mp.mpf(10))
               - 3 * mp.e * abs(mp.gamma(10)) / 9) < mp.mpf("1e-60")
    with pytest.raises(DomainError, match="r_fact_asymptotic needs an integer N >= 1"):
        r_fact_asymptotic(1, 1, 1, 0, mp.mpf(10))


@pytest.mark.parametrize("N", [-1, -2, -5, 2.5, "3"])
def test_r_fact_refuses_an_index_that_is_no_nonnegative_integer(N):
    # -1 once divided by zero, -2 named gamma_ratio, 2.5 summed a fractional kernel
    with pytest.raises(DomainError, match="r_fact needs an integer N >= 0"):
        r_fact(1, 1, 1, N, mp.mpc(3, 1))


def test_r_as_refuses_a_negative_index():
    # once mpmath's ValueError from the pole of the gamma function at n + 1 <= 0
    for n in (-1, -3):
        with pytest.raises(DomainError, match="r_as needs an integer n >= 0"):
            r_as(1, 1, 1, n, mp.mpc(3, 1))


def _count_kernel_work(monkeypatch) -> tuple[list, list]:
    """(the offset of each kernel chain built, the arguments of each gamma_ratio
    call) from here on, wherever the name gamma_ratio is bound."""
    built, calls = [], []
    init, ratio = numerics._Chain.__init__, numerics.gamma_ratio
    monkeypatch.setattr(numerics._Chain, "__init__",
                        lambda self, zc, sf: (built.append(sf), init(self, zc, sf))[1])
    for module in (numerics, classical):
        monkeypatch.setattr(module, "gamma_ratio",
                            lambda *args: (calls.append(args), ratio(*args))[1], raising=False)
    return built, calls


def test_the_bound_table_reads_one_kernel_chain(monkeypatch, prec):
    # every r_fact row reads a prefix of the one s = 1 chain at lambda z
    classical._KERNEL_CHAINS.cache_clear()
    built, calls = _count_kernel_work(monkeypatch)
    rows = bound_comparison_table(1, 1, mp.mpc(10, 10), 30, prec)
    assert len(rows) == 31 and calls == [] and built == [1]


def test_r_fact_after_a_bounded_sum_at_its_point_builds_no_chain(monkeypatch, prec):
    A, B, N = 4, mp.mpf("0.05"), 200
    e = factorial_expansion(euler_series(202, prec), 1, N + 1, prec)
    z = RamifiedPoint(8.75, -0.25).projection(prec)
    res = factorial_series_sum(e, z, N, GrowthEnvelope(A=A, B=B, lam=mp.inf), prec)
    built, calls = _count_kernel_work(monkeypatch)
    for n in (N, 7, N + 1):  # the bound's own index, a shorter prefix, the sum's tail element
        assert r_fact(1, A, B, n, z, prec) > 0
    assert r_fact(1, A, B, N, z, prec) == res.rigorous_bound
    assert calls == [] and built == []


# ---------------------------------------------------------------------------
# a point's loops: kernel chains, term rows and the quadrature's integrand run
# on raw mpmath tuples, with the bits of their forms through mpmath's operators
# ---------------------------------------------------------------------------


def test_term_rows_are_their_operator_form_bit_for_bit(prec):
    # each term K_n c_n, its modulus and the running largest condition number
    # (max keeps the first of equal values) on an Euler row (m = 1, real c_n)
    # and a rotated example2 row (m = 2, complex c_n)
    cases = [(euler_series(62, prec), "1", None, 1, mp.mpc("8.75", "-2.25")),
             (example2_series(62, prec), "0.6", mp.pi / 3, 2, mp.mpc(5))]
    for f, lam, theta, m, z in cases:
        with working_precision(prec) as cfg:
            e = classical._expansion(f, as_mpf(lam), theta, 60, cfg)
            w = e.lam * z
            classical._kernel(w, m, 60)
            row, = classical._terms([(1, e)], w, m)
            top = mp.mpf(0)
            for n, (term, mag, largest) in enumerate(row.upto(60)[1:], 1):
                c, cond = e._row.values[n]
                want = classical._kernel(w, m, n) * c
                top = max(top, cond)
                assert (term._mpc_, mag._mpf_) == (want._mpc_, abs(want)._mpf_), (m, n)
                assert largest is top, (m, n)


def _bits(v):
    """The type and the raw tuple of an mpmath number."""
    return type(v).__name__, getattr(v, "_mpc_", None) or getattr(v, "_mpf_", v)


def test_a_hand_built_expansion_of_python_numbers_sums_as_mpmath_numbers(prec):
    # b holding ints, floats and complexes, condition holding ints and floats: the
    # term row reads each as mpmath's operators do, and the heuristic error takes
    # |b_(N+1)| at the working precision, so every field has the bits of the same
    # values given as mpf and mpc (N + 1 = 6, 22, 38 reads an int, a float, a complex)
    b = [n % 4 - 2 if n % 3 == 0 else (-1) ** n / (n + 1) if n % 3 == 1
         else complex((-1) ** n / (n + 2), 1 / (n + 3)) for n in range(42)]
    condition = [n + 1 if n % 2 else 1.5 for n in range(42)]
    with working_precision(prec):
        b_mp = [mp.mpc(x) if isinstance(x, complex) else mp.mpf(x) for x in b]
        condition_mp = [mp.mpf(k) for k in condition]
    python = FactorialExpansion(lam=mp.mpf(1), b=tuple(b), a0=mp.mpf(0), condition=tuple(condition))
    mpmath = FactorialExpansion(lam=mp.mpf(1), b=tuple(b_mp), a0=mp.mpf(0),
                                condition=tuple(condition_mp))
    env = GrowthEnvelope(A=4, B=0.05, lam=mp.inf)
    for N in (5, 21, 37):
        got, want = (factorial_series_sum(e, mp.mpc("5.5", "1.25"), N, env, prec)
                     for e in (python, mpmath))
        for field in ("estimate", "rigorous_bound", "heuristic_error", "condition_number",
                      "diverging"):
            assert _bits(getattr(got, field)) == _bits(getattr(want, field)), (N, field)


def _hand_built(**fields):
    """A hand-built expansion of b_n = 1/(n+1), n <= 9, at lambda = 1, with ``fields`` in place."""
    b = tuple(mp.mpf(1) / (n + 1) for n in range(10))
    return FactorialExpansion(**{"lam": mp.mpf(1), "b": b, "a0": mp.mpf(0),
                                 "condition": (mp.mpf(1),) * 10, **fields})


@pytest.mark.parametrize("z, fields", [
    (3, {"lam": -1.5}),  # w = lambda z = -4.5 was summed
    (5, {"lam": "0.5"}),
    (5, {"lam": None}),
    (5, {"lam": 1j}),
    (5, {"b": (1, 0.5, None, *(mp.mpf(1),) * 7)}),
    (5, {"b": ("0.5",) * 10}),  # mp.convert parses text; mpmath's operators do not
    (5, {"a0": "x"}),
    (5, {"a0": None}),
    (5, {"condition": (1, 2, "x", *(mp.mpf(1),) * 7)}),
    (5, {"condition": (1j,) * 10}),
    (5, {"condition": (mp.mpf(1),) * 4}),  # shorter than b
    (5, {"condition": (mp.mpf(1),) * 11}),  # longer than b
], ids=["negative-lambda", "str-lambda", "none-lambda", "complex-lambda",
        "none-in-b", "str-b", "str-a0", "none-a0", "str-condition", "complex-condition",
        "short-condition", "long-condition"])
def test_a_malformed_hand_built_expansion_is_a_domain_error(z, fields, prec):
    with pytest.raises(DomainError):
        factorial_series_sum(_hand_built(**fields), z, 5, prec=prec)


_OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__truediv__", "__rtruediv__", "__pow__", "__rpow__", "__neg__", "__pos__",
              "__abs__")


def _count_arithmetic(monkeypatch) -> tuple[Counter, list]:
    """(calls by name, a switch): every later call of an mp.mpf or mp.mpc
    arithmetic operator, or of mp.exp, made while the switch reads True."""
    calls, on = Counter(), [False]
    def counted(name, op):
        return lambda *a, **k: (on[0] and calls.update([name]), op(*a, **k))[1]
    for cls in (mp.mpf, mp.mpc):
        for name in _OPERATORS:
            monkeypatch.setattr(cls, name, counted(f"{cls.__name__}.{name}", getattr(cls, name)))
    monkeypatch.setattr(mp, "exp", counted("exp", mp.exp))
    return calls, on


def test_a_points_loops_make_no_mpmath_arithmetic_per_element(monkeypatch, prec):
    # a chain grown from 1 to 200 elements, its term row over a depth-201 Euler
    # row, and every integrand evaluation of one Euler quadrature on the real ray
    # and on a rotated one: no mpmath operator and no mp.exp per element or node,
    # only the ray's setup (its phase e^(i theta): three calls, once)
    e = factorial_expansion(euler_series(202, prec), 1, 201, prec)
    calls, on = _count_arithmetic(monkeypatch)
    with working_precision(prec):
        chain = _Chain(mp.mpc(3, 1), mp.mpf(1))
        chain.upto(0)
        row = _TermRow(e._row.values, {1: chain}, 1)
        on[0] = True
        chain.upto(199)
        row.upto(199)
        on[0] = False
    assert len(chain.values) == len(row.values) == 200 and calls == Counter()
    nodes, quad = [], mp.quad
    def counting_integrand(f, *args, **kwargs):
        def integrand(rho):
            nodes.append(rho)
            on[0] = True
            try:
                return f(rho)
            finally:
                on[0] = False
        return quad(integrand, *args, **kwargs)
    monkeypatch.setattr(mp, "quad", counting_integrand)
    for theta, setup in ((0, 0), ("0.3", 3)):
        nodes.clear()
        laplace_quadrature(BUILTIN_EVALUATORS["euler"], theta, mp.mpc(3, 1), None, prec)
        assert len(nodes) > 500 and sum(calls.values()) == setup, (theta, calls)
        calls.clear()


def _r_fact_by_gamma_ratio(lam, A, B, N, zc, prec):
    """r_fact's formula with its kernel from one gamma_ratio evaluation at
    offset N + 1, three log-gammas: the single-evaluation reference."""
    with working_precision(prec):
        lv, Av, Bv = as_mpf(lam), as_mpf(A), as_mpf(B)
        lB = lv * Bv
        shape = mp.power(N + lB + 1, N + lB + 1) / mp.power(N + 1, N)
        kernel = abs(gamma_ratio(lv * zc, N, 1, prec))
        return Av / mp.power(lB, lB) * shape * kernel / (mp.re(zc) - Bv)


def test_r_fact_is_its_single_evaluation_formula_bit_for_bit():
    # (lambda, A, B, point): the Euler workload's anchor and a seeded point, the
    # psi branch bound of table1 and the bound table's point
    cases = [(1, 4, "0.05", RamifiedPoint(2.5, 0)), (1, 4, "0.05", RamifiedPoint(8.75, -0.25)),
             (2.885390081777927, 1, 1, RamifiedPoint(12, 0)), (1, 1, 1, mp.mpc(10, 10))]
    Ns = (*range(0, 251, 9), 1, 2, 250)
    for prec in map(PrecisionConfig, (53, 113, 256, 512)):
        for lam, A, B, z in cases:
            zc = z.projection(prec) if isinstance(z, RamifiedPoint) else z
            classical._KERNEL_CHAINS.cache_clear()
            for N in Ns[::2] + Ns[1::2]:  # grow the chain, then read inside it
                assert r_fact(lam, A, B, N, zc, prec) == \
                    _r_fact_by_gamma_ratio(lam, A, B, N, zc, prec), (prec, lam, z, N)


def test_b_bound_values(workprec):
    assert abs(b_bound(1, 1, 1, 1) - 4) < mp.mpf(2) ** -240
    assert b_bound(1, 3, 1, 5) > b_bound(1, 1, 1, 5)  # monotone in A
    with pytest.raises(DomainError):
        b_bound(1, 1, 1, 0)


def test_b_bound_sound_for_euler(workprec, prec):
    A, B = sampled_region_envelope_euler()
    f = euler_series(32)
    b = stirling_transform(f.coefficients[1:], prec)
    for n in range(1, 31):
        assert abs(b[n]) <= b_bound(1, A, B, n)


def test_bound_soundness_euler(workprec, prec):
    # r_fact dominates the true truncation error on a sampled-valid envelope
    A, B = sampled_region_envelope_euler()
    z = mp.mpf(3)
    oracle = laplace_quadrature(BUILTIN_EVALUATORS["euler"], 0, z, 1e-16, prec)
    f = euler_series(33)
    e = factorial_expansion(f, 1)
    for N in range(0, 31):
        res = factorial_series_sum(e, z, N)
        assert abs(res.estimate - oracle) <= r_fact(1, A, B, N, z)


def test_least_term_soundness_euler(workprec, prec):
    # strip of half-width r < 1: |1/(1+zeta)| <= 1/(1-r) =: A there
    r = mp.mpf("0.9")
    A, B = 1 / (1 - r), mp.mpf("0.1")
    z = mp.mpf(10)
    oracle = laplace_quadrature(BUILTIN_EVALUATORS["euler"], 0, z, 1e-16, prec)
    f = euler_series(20)
    n = least_term_index(r, z)
    assert n == 9
    got = partial_sum(f, RamifiedPoint(10, 0), n)
    assert abs(got - oracle) <= r_as(r, A, B, n, z)


def test_least_term_index_values(workprec):
    assert least_term_index(2, RamifiedPoint(12, 0)) == 24
    assert least_term_index(mp.log(2), mp.mpc(10, 10)) == 9
    assert least_term_index(mp.mpf("0.1"), mp.mpf(5)) == 0
    for r in (0, float("inf"), mp.inf, mp.nan):
        with pytest.raises(DomainError):
            least_term_index(r, mp.mpf(5))


def test_bound_comparison_table_shape(workprec):
    rows = bound_comparison_table(1, 1, mp.mpc(10, 10), 30)
    assert len(rows) == 31
    col1 = [r.log_r_as_ln2 for r in rows]
    col2 = [r.log_r_as_halfpi for r in rows]
    col3 = [r.log_r_fact for r in rows]
    assert col1.index(min(col1)) in (9, 10)
    assert col2.index(min(col2)) in (21, 22, 23)
    assert all(col3[n + 1] < col3[n] for n in range(5, 30))
    assert col3[30] < col1[30]
    with pytest.raises(DomainError):
        bound_comparison_table(1, 1, mp.mpc(0.5, 10), 5)


@pytest.mark.parametrize("call", [
    lambda: least_term_sum_ramified(psi_series(80), None, RamifiedPoint(12, 0)),
    lambda: r_fact(1, None, 1, 5, 3),
    lambda: b_bound(1, "x", 1, 5),
    lambda: r_as(1j, 1, 1, 5, 3),
    lambda: bound_comparison_table(1, [1], 10, 5),
], ids=["least_term_sum_ramified", "r_fact", "b_bound", "r_as", "bound_comparison_table"])
def test_a_bound_input_that_is_no_number_is_a_domain_error(workprec, call):
    with pytest.raises(DomainError, match="needs finite positive"):
        call()


@pytest.mark.parametrize("bad", [mp.inf, mp.nan, None, "x"])
def test_a_non_finite_point_is_a_domain_error_never_a_number(workprec, bad):
    # a point as_mpc cannot read (None, a string that is no number) is no point either
    z = mp.mpc(bad, 0) if isinstance(bad, mp.mpf) else bad
    f = euler_series(12)
    e = factorial_expansion(f, 1)
    calls = {"least_term_index": lambda: least_term_index(1, z),
             "r_as": lambda: r_as(1, 1, 1, 5, z),
             "r_fact": lambda: r_fact(1, 1, 1, 5, z),
             "r_fact_asymptotic": lambda: r_fact_asymptotic(1, 1, 1, 5, z),
             "bound_comparison_table": lambda: bound_comparison_table(1, 1, z, 3),
             "factorial_series_sum": lambda: factorial_series_sum(e, z, 5),
             "generalized_factorial_sum": lambda: generalized_factorial_sum(f, 1, z, 5)}
    for name, call in calls.items():
        with pytest.raises(DomainError, match="finite"):
            call()
            pytest.fail(f"{name} returned a number at z = {z}")


def test_a_complex_point_is_used_exactly_as_given(prec):
    from borelsum.classical import _halfplane
    # arg z != 0: a polar round trip would move the last bits of this point
    for mod, arg in ((8.75, -0.25), (7.5, 0.375), (4.375, -0.375)):
        zc = RamifiedPoint(mod, arg).projection(prec)
        with working_precision(prec):
            assert _halfplane(zc, 0, prec) == zc
            assert _halfplane(RamifiedPoint(mod, arg), 0, prec) == zc


# ---------------------------------------------------------------------------
# factorial rows cached on the series
# ---------------------------------------------------------------------------


def _reciprocal_series(depth, prec):
    # coefficients 1/(k+3): not exact at any precision, so rows of two
    # precisions differ in their values
    with working_precision(prec):
        return FormalSeries(1, [mp.mpf(1) / (k + 3) for k in range(depth + 1)])


def test_factorial_rows_are_kept_apart_by_lambda_and_precision():
    f = _reciprocal_series(40, PrecisionConfig(512))
    keys = [(1, 256), (2, 256), (1, 512), (2, 512), ("0.5", 113)]
    for N in (12, 30, 20):  # every row exists before the others grow
        for lam, bits in keys:
            prec = PrecisionConfig(bits)
            cached = factorial_expansion(f, lam, N, prec)
            with working_precision(prec):
                lv = mp.mpf(lam)
                fs = scale(f, lv, prec) if lv != 1 else f
                fs = FormalSeries(1, fs.coefficients[:N + 2])  # a new series: no cached row
            fresh = factorial_expansion(fs, 1, N, prec)
            assert (cached.lam, cached.b, cached.condition) == (lv, fresh.b, fresh.condition)


def test_factorial_rows_grow_consistently_across_threads(prec):
    # more threads than cores, switching often, all growing the same two rows
    f = _reciprocal_series(60, prec)
    requests = [(lam, N) for lam in (1, 2) for N in (7, 40, 18, 55, 3, 29)]
    results = []

    def worker(i):
        for lam, N in requests[i:] + requests[:i]:
            results.append((lam, N, factorial_expansion(f, lam, N, prec)))

    old, old_prec = sys.getswitchinterval(), mp.mp.prec
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert mp.mp.prec == old_prec  # each thread restored the precision it found
    assert len(results) == 6 * len(requests)
    for lam, N, e in results:
        assert e == factorial_expansion(_reciprocal_series(60, prec), lam, N, prec)


def test_a_series_with_cached_rows_pickles(prec):
    f = _reciprocal_series(20, prec)
    e = factorial_expansion(f, 2, 15, prec)
    with mp.workprec(53):  # unpickling must not round the coefficients
        g = pickle.loads(pickle.dumps(f))
    assert g.coefficients == f.coefficients
    assert g._cache.keys() == f._cache.keys()  # the cached rows travel along
    assert factorial_expansion(g, 2, 15, prec) == e
