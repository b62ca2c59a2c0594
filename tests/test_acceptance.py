"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  Expected-value tables live in borelsum.reproduce.

Known red cell: the stored reference row N=40 of table1 is internally
inconsistent with the other five rows (see the table1 caveat under
"Reference reproductions" in README.md); the exactly computed partial sum
at per-branch depth 40 differs from the stored digits by ~5 units in the
last digit, and the error-column formula that matches the seven other
error cells to two significant figures gives 1.1e-18 there instead of the
stored 0.2e-18.
That one row is asserted in a strict xfail so the discrepancy stays
visible without faking a pass.
"""

from fractions import Fraction

import mpmath as mp
import pytest

from borelsum import (DomainError, InsufficientCoefficientsError,
                      PrecisionConfig, RamifiedPoint, branch_sum,
                      d_coefficient_row, euler_series, factorial_expansion,
                      factorial_series_sum, generalized_factorial_sum,
                      laplace_quadrature, partial_sum, psi_series, r_as,
                      r_fact, r_fact_asymptotic, stirling_first,
                      working_precision)
from borelsum import reproduce as repro
from borelsum.combinatorics import bell_partial, d_coefficient_exact
from borelsum.oracle import BUILTIN_EVALUATORS

from conftest import sampled_region_envelope_euler
from test_combinatorics import _bell_bruteforce, _x

PREC = PrecisionConfig(256)
PREC2 = PrecisionConfig(512)

_cache: dict = {}


def rows_for(target: str, prec=PREC) -> list:
    key = (target, prec.mantissa_bits)
    if key not in _cache:
        _cache[key] = repro.run_target(target, prec)
    return _cache[key]


def report(criterion: str, ok: bool):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok


# --- 1. table1: branch method, lambda = 2/ln 2, z = 12 ----------------------

def test_criterion_01_table1_rows_up_to_33():
    rows = rows_for("table1")
    graded = [r for r in rows if "N=40" not in r.label]
    report("1 (table1, rows N<=33, estimates and error column)",
           all(r.passed for r in graded))


@pytest.mark.xfail(strict=True, reason=(
    "stored N=40 row disagrees with the exactly computed depth-40 partial sum "
    "(stable under precision doubling); see the acceptance-suite docstring"))
def test_criterion_01_table1_row_40():
    rows = rows_for("table1")
    graded = [r for r in rows if "N=40" in r.label]
    assert graded
    report("1 (table1, row N=40)", all(r.passed for r in graded))


# --- 2. table2: lambda = 4 ---------------------------------------------------

def test_criterion_02_table2():
    report("2 (table2, lambda=4 rows N=14,18)",
           all(r.passed for r in rows_for("table2")))


# --- 3. table3 + cross-table agreement --------------------------------------

def test_criterion_03_table3_rows():
    report("3 (table3, generalized rows n=10,18,25)",
           all(r.passed for r in rows_for("table3")))


def test_criterion_03_cross_table_agreement():
    # |table1(N) - table3(n=N)| <= sum of the stored error columns
    with working_precision(PREC):
        lam = 2 / mp.log(2)
    f = psi_series(130, PREC)
    z = RamifiedPoint(12, 0)
    ok = True
    with working_precision(PREC):
        for N in (10, 18, 25):
            t1 = branch_sum(f, lam, z, N, prec=PREC)
            t3 = generalized_factorial_sum(f, lam, z, 3 * N, prec=PREC)
            budget = mp.mpf(repro._TABLE1[N][1]) + mp.mpf(repro._TABLE3[N][1])
            ok = ok and abs(t1.estimate - t3.estimate) <= budget
    report("3 (|table1 - table3| within stored error budgets)", ok)


# --- 4. least-term reproduction ----------------------------------------------

def test_criterion_04_least_term():
    report("4 (least-term n=24 at z=12)",
           all(r.passed for r in rows_for("leastterm-psi")))


# --- 5. table4 divergence -----------------------------------------------------

def test_criterion_05_table4():
    report("5 (table4, divergent generalized expansion)",
           all(r.passed for r in rows_for("table4")))


# --- 6. table5 rotated sums ----------------------------------------------------

def test_criterion_06_table5():
    report("6 (table5, rotated direction, lambda=0.6)",
           all(r.passed for r in rows_for("table5")))


def test_a_repeated_target_reads_its_own_series_again(monkeypatch):
    # table5 asks for a deeper example2 than table4; table4 run again must still
    # read the series it grew its lambda = 1 row on, and step no antidiagonal
    from borelsum import classical, ramified
    monkeypatch.setattr(repro, "_BUILT", {})
    summed, stepped = [], []

    def summing(f, *args, **kwargs):
        summed.append(f)
        return generalized_factorial_sum(f, *args, **kwargs)

    def stepping(base, s, prev, step=classical._next_antidiagonal):
        stepped.append(s)
        return step(base, s, prev)

    monkeypatch.setattr(ramified, "generalized_factorial_sum", summing)  # what summate reads
    monkeypatch.setattr(classical, "_next_antidiagonal", stepping)  # what the coefficient row steps
    first = repro.run_target("table4", PREC)
    series = summed[0]
    repro.run_target("table5", PREC)
    assert stepped
    summed.clear()
    stepped.clear()
    assert repro.run_target("table4", PREC) == first
    assert summed and all(f is series for f in summed)
    assert stepped == []


def test_an_unknown_target_is_a_domain_error():
    with pytest.raises(DomainError, match="unknown reproduction target 'table9'"):
        repro.run_target("table9", PREC)


# --- 7. quadrature oracle -------------------------------------------------------

def test_criterion_07_oracle_values():
    with working_precision(PREC):
        v0 = laplace_quadrature(BUILTIN_EVALUATORS["example2"], 0, mp.mpf(5),
                                1e-9, PREC)
        vr = laplace_quadrature(BUILTIN_EVALUATORS["example2"], mp.pi / 3,
                                mp.mpf(5), 1e-9, PREC)
        ok = abs(v0 - mp.mpf("0.2357006")) <= mp.mpf("1e-7")
        ok = ok and abs(vr - mp.mpf("0.2357006")) <= mp.mpf("1e-6")
    report("7 (oracle value 0.2357006 on both rays)", ok)


# --- 8. bound-comparison shape ---------------------------------------------------

def test_criterion_08_fig2_shape():
    report("8 (bound-comparison curve shapes)",
           all(r.passed for r in rows_for("fig2")))


# --- 9. property suite ------------------------------------------------------------

def test_criterion_09a_stirling_polynomial_identity():
    ok = True
    for n in range(0, 13):
        for x in range(-5, 6):
            direct = 1
            for i in range(n):
                direct *= (x - i)
            ok = ok and direct == sum(stirling_first(n, k) * x ** k
                                      for k in range(n + 1))
    report("9a (falling-factorial polynomial identity, n<=12)", ok)


def test_criterion_09b_bell_partition_bruteforce():
    ok = all(bell_partial(j, p) == _bell_bruteforce(j, p, _x)
             for j in range(1, 9) for p in range(1, j + 1))
    report("9b (Bell polynomials vs partition enumeration, j<=8)", ok)


def test_criterion_09c_d_identities():
    ok = all(d_coefficient_exact(1, j) == 0 for j in range(1, 11))
    ok = ok and all(d_coefficient_exact(2, j) == mp.factorial(j) for j in range(1, 11))
    report("9c (d_{1,j} = 0 and d_{2,j} = j!)", ok)


def _float_row_tail(r: Fraction, jmax: int, bits: int = 192):
    """Floating continuation of the exact d-row recurrence (Miller power
    rule for h^(r-1), h_k = 1/(k+1)); cross-checked against the exact rows
    below before use.  The recurrence runs on integers scaled by 2^224
    (each term truncated once) and is converted to mpf at the end."""
    p, q = r.numerator, r.denominator
    c = [1 << 224]
    for n in range(1, jmax + 1):
        c.append(sum((p * k - n * q) * c[n - k] // (k + 1)
                     for k in range(1, n + 1)) // (n * q))
    with mp.workprec(bits):
        out = [mp.mpf(1)]
        rise = mp.mpf(1)
        rm = mp.mpf(p) / q
        for j in range(1, jmax + 1):
            rise *= rm + (j - 1)
            out.append(mp.ldexp(c[j], -224) * rise)
        return out


def test_criterion_09d_power_expansion_identity():
    # 1/z^r = Gamma(z)/Gamma(r+z) + sum_{j>=1} d_{r,j} Gamma(z)/Gamma(r+j+z)
    # at z = 3 and z = 5+2i, to 1e-10.  At z = 3 the terms decay only like
    # j^(-z-...), so the sum runs deep; the tail uses the floating
    # continuation of the exact recurrence, verified against the package's
    # exact coefficients on a long prefix.
    depths = {Fraction(1, 2): 1200, Fraction(2, 3): 1200, Fraction(3, 2): 2000}
    ok = True
    with mp.workprec(192):
        for r, jmax in depths.items():
            drow = _float_row_tail(r, jmax)
            exact_prefix = d_coefficient_row(r, 100)
            for j in (1, 17, 64, 100):
                ref = mp.mpf(exact_prefix[j].numerator) / exact_prefix[j].denominator
                assert abs(drow[j] - ref) <= mp.mpf(2) ** -150 * max(1, abs(ref))
            rm = mp.mpf(r.numerator) / r.denominator
            for z in (mp.mpc(3), mp.mpc(5, 2)):
                K = mp.exp(mp.loggamma(z) - mp.loggamma(rm + z))
                total = K
                for j in range(1, jmax + 1):
                    K = K / (rm + j - 1 + z)
                    total += drow[j] * K
                ok = ok and abs(total - mp.power(z, -rm)) <= mp.mpf("1e-10")
    report("9d (1/z^r expansion identity, r in {1/2,2/3,3/2}, z in {3,5+2i})", ok)


def test_criterion_09e_euler_factorial_vs_oracle():
    # the lambda-accelerated factorial series reaches 1e-10 at z=3
    # (lambda = 1.35 < 1/ln 2, inside the permitted range for 1/(1+zeta))
    with working_precision(PREC):
        oracle = laplace_quadrature(BUILTIN_EVALUATORS["euler"], 0, mp.mpf(3),
                                    1e-14, PREC)
        f = euler_series(205, PREC)
        e = factorial_expansion(f, mp.mpf("1.35"), prec=PREC)
        res = factorial_series_sum(e, mp.mpf(3), 200, prec=PREC)
        ok = abs(res.estimate - oracle) <= mp.mpf("1e-10")
    report("9e (Euler factorial sum vs oracle at z=3, 1e-10)", ok)


def test_criterion_09f_bound_soundness():
    with working_precision(PREC):
        A, B = sampled_region_envelope_euler()
        z = mp.mpf(3)
        oracle = laplace_quadrature(BUILTIN_EVALUATORS["euler"], 0, z, 1e-16, PREC)
        f = euler_series(33, PREC)
        e = factorial_expansion(f, 1, prec=PREC)
        ok = True
        for N in range(0, 31):
            res = factorial_series_sum(e, z, N, prec=PREC)
            ok = ok and abs(res.estimate - oracle) <= r_fact(1, A, B, N, z, PREC)
        # strip bound with r < 1 (singularity at distance 1 from the ray)
        rs = mp.mpf("0.9")
        As = 1 / (1 - rs)
        z10 = mp.mpf(10)
        o10 = laplace_quadrature(BUILTIN_EVALUATORS["euler"], 0, z10, 1e-16, PREC)
        for n in range(0, 10):
            got = partial_sum(f, RamifiedPoint(10, 0), n, PREC)
            ok = ok and abs(got - o10) <= r_as(rs, As, mp.mpf("0.1"), n, z10, PREC)
    report("9f (r_as and r_fact dominate the true Euler error)", ok)


def test_criterion_09g_asymptotic_ratio():
    with working_precision(PREC):
        ratio = (r_fact(1, 1, 1, 10 ** 4, mp.mpf(10), PREC)
                 / r_fact_asymptotic(1, 1, 1, 10 ** 4, mp.mpf(10), PREC))
        ok = mp.mpf("0.95") <= ratio <= mp.mpf("1.05")
    report("9g (large-N bound equivalent within 5% at N=1e4)", ok)


def test_criterion_09h_precision_doubling():
    # doubling the mantissa moves no printed digit of any row of any target,
    # and no verdict
    ok = True
    for target in repro.TARGETS:
        rows_lo = rows_for(target, PREC)
        rows_hi = rows_for(target, PREC2)
        assert [r.label for r in rows_lo] == [r.label for r in rows_hi]
        ok = ok and all(lo.computed == hi.computed and lo.passed == hi.passed
                        for lo, hi in zip(rows_lo, rows_hi))
    report("9h (precision-doubling stability of every reproduced table)", ok)


# --- 10. negative and robustness cases -----------------------------------------

def test_criterion_10_negative_cases():
    ok = True
    with working_precision(PREC):
        try:
            r_fact(1, 1, 5, 10, mp.mpf(4), PREC)
            ok = False
        except DomainError:
            pass
        try:
            laplace_quadrature(BUILTIN_EVALUATORS["example2"], 0, mp.mpf("0.2"),
                               1e-6, PREC)
            ok = False
        except DomainError:
            pass
        f = psi_series(20, PREC)
        try:
            partial_sum(f, RamifiedPoint(12, 0), 21, PREC)
            ok = False
        except InsufficientCoefficientsError:
            pass
        try:
            branch_sum(f, 1, RamifiedPoint(12, 0), 10, prec=PREC)
            ok = False
        except InsufficientCoefficientsError:
            pass
        # lambda beyond the permitted range: warning, not an error
        import warnings as _w
        from borelsum import GrowthEnvelope
        env = GrowthEnvelope(A=1, B=1, lam=2.0, domain="region")
        with _w.catch_warnings(record=True) as caught:
            _w.simplefilter("always")
            e = factorial_expansion(euler_series(12, PREC), 3, prec=PREC)
            factorial_series_sum(e, mp.mpf(5), 5, envelope=env, prec=PREC)
        ok = ok and any("exceeds the envelope" in str(w.message) for w in caught)
    report("10 (domain errors, depth errors, lambda warning)", ok)
