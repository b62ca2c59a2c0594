import dataclasses
import gc
import importlib
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import factorial
from pathlib import Path

import mpmath as mp
import pytest
from mpmath.calculus.quadrature import TanhSinh

from borelsum import (DomainError, PSI_LAMBDA_SUP, PrecisionConfig,
                      QuadratureError, RamifiedPoint, binomial_series,
                      euler_series, example2_series, laplace_quadrature, least_term_index,
                      partial_sum, psi_scaled_coefficients, psi_series, r_as, summate,
                      working_precision)
from borelsum.numerics import as_mpc, as_mpf
from borelsum.oracle import (BUILTIN_EVALUATORS, BorelEvaluator, _binomial_evaluator, _node_cut,
                             _quadrature)

# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


def test_quadrature_constant_transform(workprec, prec):
    v = laplace_quadrature(BUILTIN_EVALUATORS["const1"], 0, mp.mpf(2), 1e-20, prec)
    assert abs(v - mp.mpf(1) / 2) < mp.mpf("1e-20")


def test_quadrature_euler_value(workprec, prec):
    # int_0^inf e^(-t)/(1+t) dt = e*E1(1), checked against mpmath's
    # exponential integral and a second, independent quadrature scheme
    v = laplace_quadrature(BUILTIN_EVALUATORS["euler"], 0, mp.mpf(1), 1e-18, prec)
    assert abs(v - mp.e * mp.e1(1)) < mp.mpf("1e-18")
    assert abs(v - mp.mpf("0.596347362323194074341078499369")) < mp.mpf("1e-18")
    with mp.workprec(100):  # the cut at 60 alone leaves ~1e-28
        gl = mp.quad(lambda t: mp.exp(-t) / (1 + t), [0, 2, 60], method="gauss-legendre")
    assert abs(v - gl) < mp.mpf("1e-18")


def test_quadrature_example2_reference_value(workprec, prec):
    v = laplace_quadrature(BUILTIN_EVALUATORS["example2"], 0, mp.mpf(5), 1e-9, prec)
    assert abs(v - mp.mpf("0.2357006")) < mp.mpf("1e-7")


def test_quadrature_ray_rotation_consistency(workprec, prec):
    v0 = laplace_quadrature(BUILTIN_EVALUATORS["example2"], 0, mp.mpf(5), 1e-9, prec)
    vr = laplace_quadrature(BUILTIN_EVALUATORS["example2"], mp.pi / 3, mp.mpf(5),
                            1e-9, prec)
    assert abs(v0 - vr) < mp.mpf("1e-6")


def test_quadrature_tol_halving(workprec, prec):
    for name in ("euler", "example2", "const1"):
        g = BUILTIN_EVALUATORS[name]
        for z in (mp.mpf(1), mp.mpf(3), mp.mpf(5)):
            tol = mp.mpf("1e-10")
            v1 = laplace_quadrature(g, 0, z, tol, prec)
            v2 = laplace_quadrature(g, 0, z, tol / 2, prec)
            assert abs(v1 - v2) < tol


def test_quadrature_domain_error(workprec, prec):
    with pytest.raises(DomainError):
        laplace_quadrature(BUILTIN_EVALUATORS["example2"], 0, mp.mpf("0.2"), 1e-6, prec)
    with pytest.raises(DomainError):
        # rotated ray pushes Re(z e^(i theta)) below B
        laplace_quadrature(BUILTIN_EVALUATORS["example2"], mp.pi / 2.01, mp.mpf(5),
                           1e-6, prec)
    for tol in (mp.inf, mp.nan):  # an infinite tol would truncate the ray at 8/c
        with pytest.raises(DomainError, match="finite"):
            laplace_quadrature(BUILTIN_EVALUATORS["euler"], 0, mp.mpf(3), tol, prec)


def test_quadrature_unreachable_tolerance(prec):
    with pytest.raises(QuadratureError):
        laplace_quadrature(BUILTIN_EVALUATORS["euler"], 0, mp.mpf(3),
                           mp.mpf(10) ** -200, prec)


@pytest.mark.parametrize("bits", [53, 64, 96])
def test_quadrature_default_tolerance_at_low_precision(bits, prec):
    # without an explicit tol the quadrature must still be good to about
    # three quarters of the mantissa (53 bits: e^3 E1(3) to ~1e-11)
    low = PrecisionConfig(bits)
    v = laplace_quadrature(BUILTIN_EVALUATORS["euler"], 0, 3, prec=low)
    v2 = laplace_quadrature(BUILTIN_EVALUATORS["example2"], 0, 5, prec=low)
    with mp.workprec(256):
        target = mp.mpf(2) ** -(bits * 3 // 4 - 2)
        assert abs(v - mp.exp(3) * mp.e1(3)) < target
        ref = laplace_quadrature(BUILTIN_EVALUATORS["example2"], 0, 5, prec=prec)
        assert abs(v2 - ref) < target


def test_quadrature_default_tolerance_at_512_bits():
    # the Euler transform is formed at the quadrature's own precision, so the
    # default tolerance 2^-456 is reachable
    hi = PrecisionConfig(512)
    v = laplace_quadrature(BUILTIN_EVALUATORS["euler"], 0, 3, prec=hi)
    with working_precision(hi):
        assert abs(v - mp.exp(3) * mp.e1(3)) < hi.default_tolerance


def test_custom_evaluator(workprec, prec):
    # e^(-zeta) at the cover point zeta = rho e^(i theta), given as (rho, theta)
    g = BorelEvaluator(fn=lambda zeta: mp.exp(-zeta[0] * mp.exp(1j * zeta[1])), A=1.0, B=0.0)
    v = laplace_quadrature(g, 0, mp.mpf(2), 1e-20, prec)
    assert abs(v - mp.mpf(1) / 3) < mp.mpf("1e-20")  # int e^(-3t) dt


# ---------------------------------------------------------------------------
# the quadrature against closed forms of the binomial family, whose truth lives
# only here: tol None is the default 2^-200, and at 1e-3 the rule runs at its
# 53-bit floor
# ---------------------------------------------------------------------------

_TOLS = [None, "1e-9", "1e-3"]
_RNG = random.Random(2006)  # drawn from only while the point lists below are built


def _draw_ray():
    """A complex z and a rotation theta, each argument within 0.5 of the real
    axis and |z| in [3, 6], so Re(z e^(i theta)) > 1.6."""
    z = mp.mpf(_RNG.uniform(3, 6)) * mp.exp(1j * mp.mpf(_RNG.uniform(-0.5, 0.5)))
    return z, mp.mpf(_RNG.choice((-1, 1)) * _RNG.uniform(0.1, 0.5))


# (alpha, c, z, theta): m = 1, Euler and each alpha with c = 1 or c = 1/2
_M1_POINTS = [(Fraction(alpha), Fraction(c), *_draw_ray())
              for alpha, c in ((-1, 1), (-1, "1/2"), ("-1/3", 1), ("1/2", "1/2"))]
# (m, alpha, c, z, theta): terminating members, theta != 0
_TERMINATING_POINTS = [(m, alpha, _RNG.choice((Fraction(1), Fraction(1, 2))), *_draw_ray())
                       for m in (2, 3, 4) for alpha in (1, 2)]


def _m1_laplace(alpha, c, z):
    """int_0^inf e^(-z zeta) (1 + c zeta)^alpha dzeta
    = (1/c) e^(z/c) (z/c)^(-alpha-1) Gamma(alpha+1, z/c); e^z E_1(z) for Euler."""
    u = z / c
    return mp.exp(u) * u ** (-alpha - 1) * mp.gammainc(alpha + 1, u) / c


def _terminating_laplace(m, alpha, c, z, theta):
    """The ray integral of (1 + c zeta^(1/m))^alpha for an integer alpha >= 0, term
    by term: sum_k binom(alpha, k) c^k Gamma(k/m + 1) e^(i theta (k/m + 1))
    / (z e^(i theta))^(k/m + 1)."""
    w = z * mp.exp(1j * theta)
    return mp.fsum(mp.binomial(alpha, k) * c ** k * mp.gamma(mp.mpf(k) / m + 1)
                   * mp.exp(1j * theta * (mp.mpf(k) / m + 1)) / w ** (mp.mpf(k) / m + 1)
                   for k in range(alpha + 1))


def _within_tol(g, theta, z, tol, prec, truth):
    """The quadrature is within tol of ``truth()``, formed 64 bits finer."""
    v = laplace_quadrature(g, theta, z, tol, prec)
    with mp.workprec(prec.mantissa_bits + 64):
        assert abs(v - truth()) <= (mp.mpf(tol) if tol else prec.default_tolerance)


@pytest.mark.parametrize("tol", _TOLS)
def test_m1_quadrature_is_the_incomplete_gamma_form(tol, workprec, prec):
    for alpha, c, z, theta in _M1_POINTS:
        # |1 + c zeta| >= 1 on |theta| <= pi/2, and (1 + c rho)^(1/2) <= e^(c rho/2)
        A, B = (1, 0) if alpha < 0 else (1, float(c) / 2)
        g = _binomial_evaluator(1, alpha, c, A, B)
        _within_tol(g, theta, z, tol, prec, lambda: _m1_laplace(as_mpf(alpha), as_mpf(c), z))


@pytest.mark.parametrize("tol", _TOLS)
def test_terminating_quadrature_is_its_term_sum(tol, workprec, prec):
    for m, alpha, c, z, theta in _TERMINATING_POINTS:
        # |1 + c zeta^(1/m)|^alpha <= (1 + rho^(1/m))^2 <= 3 e^(rho/2) for m <= 4
        g = _binomial_evaluator(m, Fraction(alpha), c, 3, 0.5)
        _within_tol(g, theta, z, tol, prec,
                    lambda: _terminating_laplace(m, alpha, as_mpf(c), z, theta))


@pytest.mark.parametrize("tol", _TOLS)
def test_the_oracle_error_covers_its_true_error_within_tol(tol, workprec, prec):
    # the rule's estimate plus the tail bound at T: at least the distance to the
    # closed form, at most tol; summate reports it as the oracle's heuristic_error
    cases = [(_binomial_evaluator(1, alpha, c, *((1, 0) if alpha < 0 else (1, float(c) / 2))),
              theta, z, lambda a=alpha, c=c, z=z: _m1_laplace(as_mpf(a), as_mpf(c), z))
             for alpha, c, z, theta in _M1_POINTS]
    cases += [(_binomial_evaluator(m, Fraction(alpha), c, 3, 0.5), theta, z,
               lambda m=m, a=alpha, c=c, z=z, t=theta: _terminating_laplace(m, a, as_mpf(c), z, t))
              for m, alpha, c, z, theta in _TERMINATING_POINTS]
    tolv = mp.mpf(tol) if tol else prec.default_tolerance
    for g, theta, z, truth in cases:
        v, err = _quadrature(g, theta, z, tol, prec)
        with mp.workprec(prec.mantissa_bits + 64):
            assert abs(v - truth()) <= err <= tolv, (g, theta, z)
    res = summate(None, "oracle", RamifiedPoint(3, 0), evaluator=BUILTIN_EVALUATORS["euler"],
                  tol=tol, prec=prec)
    v, err = _quadrature(BUILTIN_EVALUATORS["euler"], 0, 3, tol, prec)
    assert _bits(res.estimate) == _bits(v) and _bits(res.heuristic_error) == _bits(err)
    with mp.workprec(prec.mantissa_bits + 64):
        assert abs(v - mp.exp(3) * mp.e1(3)) <= err <= tolv


def _retained_blocks(run) -> int:
    """Memory blocks the interpreter still holds once ``run()`` has returned and
    its garbage is collected, over what it held before.  Counted, not traced:
    tracemalloc slows a quadrature ~13-fold, 17 s for the test below."""
    gc.collect()
    start = sys.getallocatedblocks()
    run()
    gc.collect()
    return sys.getallocatedblocks() - start


def test_quadratures_at_many_points_keep_one_node_set():
    # the rule's nodes live per degree and precision, not per point: 20 and 40 new
    # Euler points, each integrated twice, leave the same ~10^3 blocks behind, where
    # a segment [0, T] per point kept a copy of its nodes, ~55 000 blocks (2.6 MB
    # under tracemalloc) for 20 points and ~108 000 for 40
    prec, g = PrecisionConfig(128), BUILTIN_EVALUATORS["euler"]
    with working_precision(prec):
        points = [mp.mpc(3 + mp.mpf(k) / 32, (-1) ** k * mp.mpf(k % 5) / 4) for k in range(64)]

    def integrate(zs):
        for z in zs:
            for _ in range(2):
                laplace_quadrature(g, 0, z, None, prec)
    integrate(points[::16])  # the warm-up: every degree the rule reaches here
    assert _retained_blocks(lambda: integrate(points[1:21])) < 5000
    assert _retained_blocks(lambda: integrate(points[21:61])) < 5000


# ---------------------------------------------------------------------------
# the integrand and the binomial evaluators run on raw mpmath tuples; their
# forms through mpmath's operators are the reference, bit for bit
# ---------------------------------------------------------------------------


def _reference_binomial(m, alpha, c):
    """The binomial evaluator's body through mpmath's operators."""
    def fn(zeta):
        rho, theta = zeta
        t = (c.numerator if c.denominator == 1 else as_mpf(c)) * mp.root(rho, m)
        if theta:
            t *= mp.exp(1j * theta / m)
        return (1 + t) ** (alpha.numerator if alpha.denominator == 1 else as_mpf(alpha))
    return fn


def _envelope_cut(g, theta, z, tol, prec):
    """(w, h, tolv, bits, x_cut) of laplace_quadrature through mpmath's operators:
    w = z e^(i theta), h = T/2 for the T whose tail bound is tol/16, the rule's
    bits and the abscissa ``_node_cut`` places from the envelope."""
    with working_precision(prec) as cfg:
        tolv = as_mpf(tol) if tol else cfg.default_tolerance
        w = as_mpc(z) * mp.exp(1j * as_mpf(theta))
        c = mp.re(w)
        gap = c - as_mpf(g.B)
        h = max(mp.log(16 * as_mpf(g.A) / (tolv * gap)) / gap, 8 / c) / 2
        bits = max(53, min(1 - mp.frexp(tolv)[1], cfg.mantissa_bits) + 16)
        return w, h, tolv, bits, _node_cut(g.A, gap, h, tolv, bits)


def _reference_quadrature(g, fn, theta, z, tol, prec):
    """laplace_quadrature with its integrand fn((rho, theta)) * mp.exp(-w * rho),
    rho = h * (1 + x) on [-1, 1] and h = T/2, and zero past x_cut, through
    mpmath's operators."""
    w, h, _, bits, x_cut = _envelope_cut(g, theta, z, tol, prec)
    with working_precision(prec):
        th = as_mpf(theta)

        def integrand(x):
            if x > x_cut:
                return mp.mpf(0)
            rho = h * (1 + x)
            return fn((rho, th)) * mp.exp(-w * rho)
        with mp.workprec(bits):
            val = mp.quad(integrand, [-1, 1], maxdegree=12) * h
        return mp.exp(1j * th) * mp.mpc(val)


def _bits(v):
    """The type and the raw tuple of an mpmath number, or a Python number itself."""
    return type(v).__name__, getattr(v, "_mpc_", None) or getattr(v, "_mpf_", v)


# (evaluator, its reference fn): the built-ins, the two members whose c or
# alpha is no integer, and user evaluators returning an mpf, an mpc, a Python
# complex and an int, which the integrand multiplies as mpmath's operators do
_MEMBERS = {"euler": (1, -1, 1), "example2": (2, Fraction(1, 2), 1), "const1": (1, 0, 1),
            "binomial(3,-1,1/2)": (3, -1, Fraction(1, 2)),
            "binomial(4,1/2,1)": (4, Fraction(1, 2), 1)}
_EVALUATORS = {name: (BUILTIN_EVALUATORS.get(name)
                      or _binomial_evaluator(m, Fraction(alpha), Fraction(c), 3, 0.5),
                      _reference_binomial(m, Fraction(alpha), Fraction(c)))
               for name, (m, alpha, c) in _MEMBERS.items()}
_EVALUATORS.update({name: (BorelEvaluator(fn=fn, A=A, B=0), fn) for name, fn, A in (
    ("mpf", lambda zeta: 1 / (1 + zeta[0]), 1),
    ("mpc", lambda zeta: 1 / (1 + zeta[0] * mp.exp(1j * zeta[1])), 1),
    ("complex", lambda zeta: 0.5 + 0.25j, 1),
    ("int", lambda zeta: 3, 3))})


def _integrand_values(monkeypatch) -> list:
    """The type and raw tuple of each later integrand value under mp.quad."""
    values, quad = [], mp.quad
    def recording(f, *args, **kwargs):
        return quad(lambda rho: (values.append(_bits(v := f(rho))), v)[1], *args, **kwargs)
    monkeypatch.setattr(mp, "quad", recording)
    return values


@pytest.mark.parametrize("bits", [53, 113, 256])
def test_the_quadrature_and_the_evaluators_are_their_operator_forms(bits, monkeypatch):
    # every integrand value, not only the result: the rule's 20 guard bits and the
    # result's rounding would hide an integrand rounded a few bits off
    prec, values = PrecisionConfig(bits), _integrand_values(monkeypatch)
    thetas = (0, mp.mpf("0.3"), mp.mpf("-0.4"), mp.pi / 3)
    with working_precision(prec):
        # rho at the precision, and one wider, which the m = 1 root rounds
        rhos = [mp.mpf(x) for x in ("0.001", "0.25", "1", "2.5", "40.5")]
        with mp.workprec(bits + 40):
            rhos.append(mp.mpf(1) / 3)
    for name, (g, fn) in _EVALUATORS.items():
        # at 256 bits the rule runs below the working precision, as at the default
        # tol, where -w rounds; the full default tol there only for the benchmark's two
        tol = "1e-20" if bits == 256 and name not in ("euler", "example2") else None
        for i, theta in enumerate(thetas):
            with working_precision(prec):
                th = as_mpf(theta)
                for rho in rhos:
                    assert _bits(g.fn((rho, th))) == _bits(fn((rho, th))), (name, theta, rho)
            # a real and a complex z on alternate rays, both at 53 bits
            for z in ((3, mp.mpc(4, 1)) if bits == 53 else ((3, mp.mpc(4, 1))[i % 2],)):
                values.clear()
                got, lean = _bits(laplace_quadrature(g, theta, z, tol, prec)), values[:]
                values.clear()
                want = _bits(_reference_quadrature(g, fn, theta, z, tol, prec))
                assert lean == values and got == want, (name, theta, z)


# ---------------------------------------------------------------------------
# the node cut: the envelope bounds every skipped node's term, checked on
# mpmath's own node lists, and the cut skips a share of the nodes
# ---------------------------------------------------------------------------


def _seed1_points(workload):
    """The projections of a benchmark workload's seed-1 points
    (perfbench/spec.py, read-only)."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        spec = importlib.import_module("spec")
    finally:
        sys.path.pop(0)
    return [RamifiedPoint(mod, arg).projection(PrecisionConfig(256))
            for mod, arg in spec.points(workload, 1)]


def _rule_calls(monkeypatch) -> list:
    """The abscissa of each later integrand call under mp.quad."""
    calls, quad = [], mp.quad
    def counting(f, *args, **kwargs):
        return quad(lambda x: (calls.append(x), f(x))[1], *args, **kwargs)
    monkeypatch.setattr(mp, "quad", counting)
    return calls


@pytest.mark.parametrize("tol", _TOLS)
def test_every_node_past_the_cut_has_its_term_bound_below_theta(tol, monkeypatch, prec):
    # the Euler and rotated example2 benchmark points, const1 and an m = 3 member:
    # on a fresh rule's node lists at the rule's precision, for every degree the
    # rule reaches, b(x) = w A e^(-gap h (1 + x)) <= theta at twice the bits for
    # every node past x_cut, with both the list's weight and w(x) in closed form,
    # and 2^-D times the positive nodes through D stays below 41
    calls, rule = _rule_calls(monkeypatch), TanhSinh(mp.mp)
    cases = ([(BUILTIN_EVALUATORS["euler"], 0, z) for z in _seed1_points("euler-factorial-oracle")]
             + [(BUILTIN_EVALUATORS["example2"], mp.pi / 3, z)
                for z in _seed1_points("ex2-generalized")]
             + [(BUILTIN_EVALUATORS["const1"], 0, 2),
                (_EVALUATORS["binomial(3,-1,1/2)"][0], mp.mpf("0.4"), mp.mpc(4, 1))])
    assert len(cases) == 14
    for g, theta, z in cases:
        calls.clear()
        _quadrature(g, theta, z, tol, prec)
        w, h, tolv, bits, x_cut = _envelope_cut(g, theta, z, tol, prec)
        nodes, degree = [], 0
        while len(nodes) < len(calls):
            degree += 1
            nodes += rule.get_nodes(-1, 1, degree, bits)
        assert [x for x, _ in nodes] == calls and degree <= 12, (g, z)
        assert sum(x > 0 for x, _ in nodes) < 41 * 2 ** degree
        skipped = [(x, wk) for x, wk in nodes if x > x_cut]
        assert skipped, (g, z, tol)  # else the bound below checks nothing
        with mp.workprec(2 * bits):
            theta_b = min(tolv / (16 * 41 * h), mp.mpf(2) ** -bits)
            decay = -(mp.re(w) - as_mpf(g.B)) * h
            for x, wk in skipped:
                closed = mp.pi / 2 * (1 - x * x) * mp.sqrt(1 + (2 * mp.atanh(x) / mp.pi) ** 2)
                b = max(wk, closed) * as_mpf(g.A) * mp.exp(decay * (1 + x))
                assert b <= theta_b, (g, z, tol, x)


def test_the_cut_skips_a_fifth_of_the_euler_anchor_nodes():
    # the benchmark's Euler anchor z = 2.5 at the default tol: 589 evaluations
    # without the cut, at most 0.8 of them with it, and the same count each time
    calls, fn = [], BUILTIN_EVALUATORS["euler"].fn
    g = dataclasses.replace(BUILTIN_EVALUATORS["euler"],
                            fn=lambda zeta: (calls.append(zeta), fn(zeta))[1])
    counts = []
    for _ in range(2):
        calls.clear()
        laplace_quadrature(g, 0, mp.mpf("2.5"), None, PrecisionConfig(256))
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 0.8 * 589, counts


def test_an_envelope_must_be_finite_with_A_positive():
    # A = 0 made a zero tail bound and a tiny error on a wrong value, a negative A
    # a raw TypeError, and a non-finite A or B a QuadratureError quoting nan or inf
    fn = BUILTIN_EVALUATORS["euler"].fn
    for A, B in ((0.0, 0.05), (-1.0, 0.05), (mp.mpf(0), 0), (float("nan"), 0.05),
                 (float("inf"), 0.05), (mp.inf, 0), (4.0, float("nan")), (4.0, float("inf")),
                 (4.0, -mp.inf)):
        with pytest.raises(DomainError, match="envelope"):
            BorelEvaluator(fn=fn, A=A, B=B)
        with pytest.raises(DomainError, match="envelope"):
            dataclasses.replace(BUILTIN_EVALUATORS["euler"], A=A, B=B)
    assert BorelEvaluator(fn=fn, A=mp.mpf("1e-300"), B=-2).B == -2
    assert {name: (g.A, g.B) for name, g in BUILTIN_EVALUATORS.items()} == {
        "euler": (4.0, 0.05), "example2": (2.0, 0.25), "const1": (1.0, 0.0)}


# ---------------------------------------------------------------------------
# built-in series
# ---------------------------------------------------------------------------


def test_euler_series_coefficients(workprec):
    f = euler_series(210)
    assert f.m == 1
    assert abs(f.coefficients[0]) == 0
    assert abs(f.coefficients[1] - 1) == 0
    assert abs(f.coefficients[4] + 6) == 0
    # bit for bit the rounded (-1)^(k-1) (k-1)! through the CLI's --depth 210
    for k in range(1, 211):
        assert f.coefficients[k] == mp.mpc((-1) ** (k - 1)) * mp.factorial(k - 1)
    # Borel coefficients a_k/(k-1)! alternate as the geometric series of 1/(1+zeta)
    for k in range(1, 9):
        want = (-1) ** (k - 1)
        assert abs(f.coefficients[k] / mp.factorial(k - 1) - want) == 0


def test_example2_series_coefficients(workprec):
    f = example2_series(160)
    assert f.m == 2
    assert abs(f.coefficients[0]) == 0 and abs(f.coefficients[1]) == 0
    assert abs(f.coefficients[2] - 1) == 0
    # Borel transform coefficients reproduce binomial(1/2, k): every a_{2+k}
    # within 2^-254 of binom(1/2, k) Gamma(k/2 + 1) formed at 1024 bits
    with mp.workprec(1024):
        binom = Fraction(1)
        for k in range(0, 159):
            want = mp.fdiv(binom.numerator, binom.denominator) * mp.gamma(mp.mpf(k) / 2 + 1)
            assert abs(f.coefficients[2 + k] - want) <= mp.mpf(2) ** -254 * abs(want)
            binom *= (Fraction(1, 2) - k) / (k + 1)


def test_builtin_evaluators_are_the_closed_forms(workprec):
    # the transforms the family replaced, on the rays of the oracle goldens and
    # EXTRA commands: bit for bit at theta = 0, where no phase is formed, and
    # within a few ulps off it, where mp.root and the power round apart from mp.sqrt
    closed = {"euler": lambda rho, th: 1 / (1 + rho * mp.exp(1j * th)),
              "example2": lambda rho, th: mp.sqrt(1 + mp.sqrt(rho) * mp.exp(1j * th / 2)),
              "const1": lambda rho, th: mp.mpc(1)}
    rays = {"euler": (0, "0.5"), "example2": (0, "1.0471975511965976", "-0.75"),
            "const1": (0,)}
    for name, thetas in rays.items():
        for th in map(mp.mpf, thetas):
            for rho in map(mp.mpf, ("0.001", "0.25", "1", "2.5", "7", "40.5")):
                got, want = BUILTIN_EVALUATORS[name].fn((rho, th)), closed[name](rho, th)
                if th == 0:
                    assert mp.mpc(got) == want, (name, rho)
                else:
                    assert abs(got - want) <= mp.mpf(2) ** -250 * abs(want), (name, rho, th)


def test_psi_scaled_exact_head():
    assert psi_scaled_coefficients(3) == [
        Fraction(1), Fraction(-4), Fraction(8), Fraction(-325, 48)]
    # frozen values from the independent symbolic derivation
    # (scripts/verify_psi_derivation.py)
    assert psi_scaled_coefficients(6)[4:] == [
        Fraction(-53, 12), Fraction(95, 6), Fraction(-33791, 4608)]


def _psi_chi_full_loop(depth):
    """chi_0..chi_depth of the u-expansion by the Fraction recurrence over
    every previous chi_kk: the library visits only the kk whose bracket can
    be nonzero, in integers."""
    from borelsum.oracle import _PSI_A0, _PSI_A1, _PSI_A2

    def bracket(p, k):
        return (Fraction(_PSI_A0.get(p + k, 0)) - k * Fraction(_PSI_A1.get(p + k + 1, 0))
                + k * (k + 1) * Fraction(_PSI_A2.get(p + k + 2, 0)))

    chi = [Fraction(1)]
    for k in range(1, depth + 1):
        p = 7 - k  # the power whose equation pivots on chi_k
        acc = sum((bracket(p, kk) * chi[kk] for kk in range(k)), Fraction(0))
        chi.append(-acc / bracket(p, k))
    return chi


def _psi_scaled_by_binomials(depth):
    """atil_0..atil_depth from the full-loop chi with every
    (-3)^j binom(-n/3, j) formed from its definition: the library keeps a
    running integer product per n instead."""
    chi = _psi_chi_full_loop(depth)

    def binom(top, j):
        v = Fraction(1)
        for i in range(j):
            v *= top - i
        return v / factorial(j)

    scaled = [Fraction(1)]
    for k in range(1, depth + 1):
        s = chi[k]
        for j in range(1, k // 2 + 1):
            n = k - 2 * j
            if n:
                s -= scaled[n] * Fraction(-3) ** j * binom(Fraction(-n, 3), j)
        scaled.append(s)
    return scaled


def test_psi_scaled_coefficients_match_the_binomial_form():
    assert psi_scaled_coefficients(200) == _psi_scaled_by_binomials(200)


def test_psi_derivation_script_passes():
    # the independent sympy derivation of the recurrence and its first terms
    pytest.importorskip("sympy")
    root = Path(__file__).resolve().parents[1]
    pythonpath = os.pathsep.join(filter(None, [str(root / "src"),
                                                os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(root / "scripts" / "verify_psi_derivation.py")],
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": pythonpath})
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "independent agreement extends through n = 12" in proc.stdout


def test_psi_series_surds(workprec):
    f = psi_series(6)
    assert f.m == 3
    assert abs(f.coefficients[0] - 1) == 0
    c = mp.cbrt
    assert abs(f.coefficients[1] + c(mp.mpf(128) / 3)) < mp.mpf(2) ** -240
    assert abs(f.coefficients[2] - c(mp.mpf(2048) / 9)) < mp.mpf(2) ** -240
    assert abs(f.coefficients[3] + c(mp.mpf(34328125) / 373248)) < mp.mpf(2) ** -238
    # a_3 is rational: -325/72
    assert abs(f.coefficients[3] + mp.mpf(325) / 72) < mp.mpf(2) ** -238


def test_psi_lambda_sup_value():
    assert abs(PSI_LAMBDA_SUP - 2 / mp.log(2)) < 1e-12


def test_watson_gevrey_consistency_euler(workprec, prec):
    # |oracle - partial_sum(n)| <= r_as(r, A, B, n, z) up to the least-term
    # index, tying the quadrature oracle to the strip remainder bound
    r = mp.mpf("0.8")
    A, B = 1 / (1 - r), mp.mpf("0.1")
    z = mp.mpf(8)
    oracle = laplace_quadrature(BUILTIN_EVALUATORS["euler"], 0, z, 1e-16, prec)
    f = euler_series(least_term_index(r, z) + 2)
    for n in range(0, least_term_index(r, z) + 1):
        got = partial_sum(f, RamifiedPoint(8, 0), n)
        assert abs(got - oracle) <= r_as(r, A, B, n, z)


def test_gevrey_shape_empirical_psi(workprec, prec):
    # remainders behave like C^(1+N/3) Gamma(1+N/3) |z|^(-1-N/3): fit C on
    # low N, then the bound with a 30% margin holds through medium N
    f = psi_series(80, prec)
    z = RamifiedPoint(12, 0)
    lam = 2 / mp.log(2)
    from borelsum import branch_sum
    limit = branch_sum(f, lam, z, 24, prec=prec).estimate
    remainders = {}
    for Nf in range(6, 61, 3):
        remainders[Nf] = abs(partial_sum(f, z, Nf, prec) - limit)
    def implied_C(Nf, R):
        expo = 1 + mp.mpf(Nf) / 3
        return (R * mp.power(12, expo) / mp.gamma(expo)) ** (1 / expo)
    C = max(implied_C(Nf, R) for Nf, R in remainders.items() if Nf <= 30)
    for Nf, R in remainders.items():
        expo = 1 + mp.mpf(Nf) / 3
        assert R <= mp.power(mp.mpf("1.3") * C, expo) * mp.gamma(expo) / mp.power(12, expo)


def test_depth_validation():
    with pytest.raises(DomainError):
        euler_series(0)
    with pytest.raises(DomainError):
        example2_series(0)
    with pytest.raises(DomainError, match="psi_scaled_coefficients needs an integer depth >= 0"):
        psi_scaled_coefficients(-3)
    for m, depth, message in ((0, 5, "binomial_series needs an integer m >= 1"),
                              (2, 0, "binomial_series needs an integer depth >= 2")):
        with pytest.raises(DomainError, match=message):
            binomial_series(m, Fraction(1, 2), 1, depth)
    for alpha, c in ((float("nan"), 1), (float("inf"), 1), (1, float("nan")), (1, float("-inf"))):
        with pytest.raises(DomainError, match="alpha and c must be finite"):
            binomial_series(2, alpha, c, 5)
