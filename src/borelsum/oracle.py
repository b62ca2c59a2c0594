"""Ground truth: direct Laplace-integral quadrature and built-in test series.

``laplace_quadrature`` evaluates the Borel sum of a series with a_0 = 0,
int_0^(inf e^(i theta)) g(zeta) e^(-z zeta) dzeta, cut at T and mapped onto
[-1, 1] by rho = (T/2)(1 + x), by one call of a double-exponential
(tanh-sinh) rule on the rule's standard interval, with T chosen from the
evaluator's growth envelope so the dropped tail A e^((B - c) T)/(c - B),
c = Re(z e^(i theta)), is at most tol/16.  Mapping the segment in the
integrand keeps mpmath to one node set per degree and precision, where a
segment [0, T] per point would keep a transformed copy of the nodes per
point.  The same envelope bounds each node's term w(x) f(x) by
b(x) = w(x) A e^((B - c)(T/2)(1 + x)), w the rule's weight, which decreases
towards x = 1; past the abscissa x_cut where b falls below
min(tol/(16 * 41 * T/2), 2^-bits), bits the rule's precision, the integrand
is an exact zero, not evaluated, and all skipped terms together weigh at most
tol/16.  The rule raises its degree
until it meets its own epsilon, so it runs 16 bits below the tolerance, not
at the result's precision; its error estimate plus the tail bound plus the
tol/16 of the skipped nodes is the oracle's error.
The tanh-sinh change of variable never evaluates the integrand at the
endpoints, which is what makes integrable zeta^(1/m - 1) behaviour at 0
harmless.  Such a rule's cost is almost all integrand evaluation (D. H.
Bailey, K. Jeyabalan, X. S. Li, "A comparison of three high-precision
quadrature schemes", Experimental Math. 14, 2005), so the integrand and the
built-in evaluators run on raw mpmath tuples, with the libmp calls and
operands that their forms through mpmath's operators make: every value has
the bits of those forms, which tests/test_oracle.py keeps as the reference.

Built-in series:

* ``binomial_series`` (any m): a_n = binom(alpha, n - m) c^(n - m) Gamma(n/m),
  whose Borel transform (1 + c zeta^(1/m))^alpha, read on the cover, is each
  built-in evaluator (``const1`` is alpha = 0).  ``euler_series`` is
  (m, alpha, c) = (1, -1, 1), a_k = (-1)^(k-1) (k-1)!, transform 1/(1+zeta);
  ``example2_series`` is (2, 1/2, 1), whose transform has a second-sheet
  singularity at modulus 1, argument 2*pi, which the direct (theta = 0)
  generalized expansion cannot see: the canonical divergence demonstration;
* ``psi_series`` (m = 3): the recessive WKB solution of
  Phi'' = (x^3 - 2x^2 - 3x + 4)/x^2 * Phi written as
  Phi = e^(-z) z^(-1/6) psi(z), z = (2/3) x^(3/2) - 2 x^(1/2).
  The coefficient recurrence is derived in docs/psi-series-derivation.md
  and validated against an independent symbolic derivation in
  scripts/verify_psi_derivation.py; the scaled coefficients
  a_n (3/2)^(n/3) are exact rationals, the first few being
  1, -4, 8, -325/48, -53/12, 95/6, -33791/4608.  Both recurrences run in
  integer numerators over one shared denominator per sequence, and the
  coefficients are cached as one row that grows in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable

import mpmath as mp
from mpmath.libmp import (ComplexResult, fone, fzero, mpc_add_mpf, mpc_exp, mpc_mul, mpc_mul_mpf,
                          mpc_neg, mpc_pow, mpc_pow_int, mpc_pow_mpf, mpf_add, mpf_lt, mpf_mul,
                          mpf_mul_int, mpf_nthroot, mpf_pos, mpf_pow, mpf_pow_int)

from .combinatorics import _SharedDenominatorRow
from .errors import DomainError, QuadratureError
from .numerics import (MIN_BITS, PrecisionConfig, _finite, _GrowingRow, as_fraction, as_index,
                       as_mpc, as_mpf, ensure_finite, working_precision)
from .series import FormalSeries

# ---------------------------------------------------------------------------
# Borel evaluators and quadrature
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BorelEvaluator:
    """A Borel transform evaluable along rays of the m-sheeted cover.

    ``fn`` maps the cover point zeta = rho e^(i theta), passed as the pair
    (rho, theta) with theta unreduced, to a complex value; (A, B) bounds
    |fn| <= A e^(B rho) on the rays it is integrated along and drives the
    truncation of the Laplace integral and the nodes it skips, so A must be
    finite and > 0 and B finite, else :class:`DomainError`.
    """

    fn: Callable[[tuple[mp.mpf, mp.mpf]], mp.mpc]
    A: float = 1.0
    B: float = 0.0

    def __post_init__(self):
        _finite(self.A, "the envelope's A", positive=True)
        _finite(self.B, "the envelope's B")


def laplace_quadrature(g: BorelEvaluator, theta, z, tol: float | None = None,
                       prec: PrecisionConfig | None = None) -> mp.mpc:
    """int over the ray arg zeta = theta of g(zeta) e^(-z zeta) dzeta.

    Requires Re(z e^(i theta)) > B for the evaluator's growth rate.  The ray is
    cut at T, where the tail bound A e^((B - c) T)/(c - B) is tol/16, and
    rho = (T/2)(1 + x) maps the segment [0, T] onto the rule's standard
    interval [-1, 1]: one tanh-sinh call there runs 16 bits below ``tol``
    (default: the precision's default tolerance), capped at the precision + 16
    and at least ``MIN_BITS``, and its value and error estimate are scaled by
    T/2; the estimate must reach tol/2, else :class:`QuadratureError`.  mpmath
    keeps the rule's nodes per degree and precision only, never a copy per
    segment, so a process that integrates at many points keeps one node set.

    ``g.fn`` is called once per node x <= x_cut (see :func:`_node_cut`); a node
    past it adds an exact zero, and the envelope bounds all of them together
    by tol/16.  The integrand is the bits of ``g.fn((rho, theta)) *
    mp.exp(-w * rho)``, w = z e^(i theta), rho = (T/2) * (1 + x) at the rule's
    precision: -w is formed once at that precision, e^(-w rho) is ``mpc_exp``
    of two ``mpf_mul`` products, and the value multiplies it as mpmath's
    operators do, an mpf by ``mpc_mul_mpf``, an mpc by ``mpc_mul`` and any
    other number as ``mp.convert`` reads it."""
    return _quadrature(g, theta, z, tol, prec)[0]


# mpmath's tanh-sinh result at degree D is 2^-D sum_k w_k f(x_k) over every node
# through D, and degree d adds at most 20 2^d + 1 positive nodes, so 2^-D times
# the positive nodes through D is below 41
_NODE_MASS = 41


def _node_cut(A, gap, h, tol, bits: int) -> float:
    """The abscissa x_cut in [1/2, 1] (1 skips nothing) past which every node's
    term bound b(x) = w(x) A e^(-gap h (1 + x)) is at most
    theta = min(tol/(16 * _NODE_MASS * h), 2^-bits), w(x) = (pi/2)(1 - x^2)
    sqrt(1 + (2 atanh(x)/pi)^2) the tanh-sinh weight at abscissa x.

    With k = h gap > 0, d/dx ln b <= (1/pi - 2x)/(1 - x^2) - k < 0 on
    (1/(2 pi), 1), so b decreases past x_cut, and a float bisection for
    ln b <= ln theta - 1 (the unit covers the doubles' rounding) finds it.
    The rule weighs its nodes through degree D by 2^-D, and fewer than
    _NODE_MASS 2^D of them are positive, so the skipped terms weigh at most
    _NODE_MASS theta, at most tol/16 once scaled by h.  The cut moves the
    result at degree D by about 2^-D b(x_cut), which the rule's error estimate
    reads as a difference between degrees; theta <= 2^-bits, ``bits`` the
    rule's precision, keeps that below the rule's epsilon, where at tol 1e-3
    tol/(16 _NODE_MASS h) alone kept the rule refining to its last degree."""
    k = float(h * gap)
    target = min(float(mp.log(tol / (16 * _NODE_MASS * h))), -bits * math.log(2))
    target -= float(mp.log(as_mpf(A))) + 1

    def above(x: float) -> bool:  # ln(b(x)/A) above the target
        return (math.log(math.pi / 2 * (1 - x) * (1 + x)) - k * (1 + x)
                + math.log1p((2 * math.atanh(x) / math.pi) ** 2) / 2 > target)

    lo, hi = 0.5, 1.0
    if not above(lo):
        return lo
    while (mid := (lo + hi) / 2) not in (lo, hi):
        lo, hi = (mid, hi) if above(mid) else (lo, mid)
    return hi


def _quadrature(g: BorelEvaluator, theta, z, tol, prec) -> tuple[mp.mpc, mp.mpf]:
    """(value, error) of :func:`laplace_quadrature`: the error is the rule's
    estimate plus the tail bound A e^((B - c) T)/(c - B) dropped at T (at most
    tol/16) plus the tol/16 that bounds the nodes skipped past x_cut."""
    with working_precision(prec) as cfg:
        tolv = cfg.default_tolerance if tol is None else _finite(tol, "tol", positive=True)
        th = _finite(theta, "theta")
        w = as_mpc(z) * mp.exp(1j * th)
        c = mp.re(w)
        if not c > g.B:
            raise DomainError(
                f"laplace_quadrature needs Re(z e^(i theta)) > B = {g.B}, got {c}")
        # truncation point: tail bound A e^((B-c)T)/(c-B) <= tol/16, and T >= 8/c
        gap = c - as_mpf(g.B)
        T = max(mp.log(16 * as_mpf(g.A) / (tolv * gap)) / gap, 8 / c)
        h = T / 2
        # the rule refines to its own epsilon; 1 - frexp's exponent is ceil(-log2 tol)
        bits = max(MIN_BITS, min(1 - mp.frexp(tolv)[1], cfg.mantissa_bits) + 16)
        cut = mp.mpf(_node_cut(g.A, gap, h, tolv, bits))._mpf_

        # -w at the rule's precision, formed at its first node
        fn, neg = g.fn, lru_cache(maxsize=1)(lambda prec, rnd: mpc_neg(w._mpc_, prec, rnd))

        def integrand(x):
            if mpf_lt(cut, x._mpf_):
                return mp.mp.zero
            prec, rnd = mp.mp._prec_rounding
            r = mpf_mul(h._mpf_, mpf_add(x._mpf_, fone, prec, rnd), prec, rnd)
            v = mp.convert(fn((mp.make_mpf(r), th)))  # an int, a float or a complex exactly
            re, im = neg(prec, rnd)
            e = mpc_exp((mpf_mul(re, r, prec, rnd), mpf_mul(im, r, prec, rnd)), prec, rnd)
            return mp.make_mpc(mpc_mul(v._mpc_, e, prec, rnd) if hasattr(v, "_mpc_")
                               else mpc_mul_mpf(e, v._mpf_, prec, rnd))

        with mp.workprec(bits):
            val, err = mp.quad(integrand, [-1, 1], error=True, maxdegree=12)
            val, err = val * h, err * h
        if not err < tolv / 2:
            raise QuadratureError(f"quadrature error estimate {mp.nstr(err, 3)} did not "
                                  f"reach tol = {mp.nstr(tolv, 3)}")
        tail = as_mpf(g.A) * mp.exp(-gap * T) / gap
        return ensure_finite(mp.exp(1j * th) * mp.mpc(val)), err + tail + tolv / 16


def _binomial_evaluator(m: int, alpha: Fraction, c: Fraction,
                        A: float, B: float) -> BorelEvaluator:
    """(1 + c zeta^(1/m))^alpha on the cover, zeta^(1/m) at the full argument theta/m
    and with no phase at theta = 0.  Integral alpha and c enter exactly, others at
    the ambient precision, which in the quadrature is 16 bits below its tol.

    ``fn`` runs on raw mpmath tuples with the libmp calls and operands of
    ``(1 + c * mp.root(rho, m) * mp.exp(1j * theta / m)) ** alpha`` through
    mpmath's operators, so each value has those bits.  The phase, and c and alpha
    as mpf where they are not integers, are formed once per (theta, precision) of
    the last ray.  The m = 1 root is +rho, rho rounded to the precision (no
    identity for a rho wider than it), and the c = 1 product, an identity on that
    rounded root, is skipped; rho is a modulus, so it is >= 0."""
    a_int = alpha.numerator if alpha.denominator == 1 else None
    c_int = c.numerator if c.denominator == 1 else None

    @lru_cache(maxsize=1, typed=True)  # a float theta forms its phase apart from an mpf
    def ray(theta, prec: int, rnd: str):
        # the phase e^(i theta/m) (None at theta = 0), c and alpha, at the ambient
        # precision and rounding, which key the memo
        return (mp.exp(1j * theta / m)._mpc_ if theta else None,
                None if c_int is not None else as_mpf(c)._mpf_,
                None if a_int is not None else as_mpf(alpha)._mpf_)

    def fn(zeta: tuple[mp.mpf, mp.mpf]) -> mp.mpc:
        rho, theta = zeta
        prec, rnd = mp.mp._prec_rounding
        phase, c_mpf, a_mpf = ray(theta, prec, rnd)
        r = mp.convert(rho)._mpf_
        t = mpf_pos(r, prec, rnd) if m == 1 else mpf_nthroot(r, m, prec, rnd)
        if c_int is None:
            t = mpf_mul(c_mpf, t, prec, rnd)
        elif c_int != 1:
            t = mpf_mul_int(t, c_int, prec, rnd)
        if phase is not None:
            t = mpc_add_mpf(mpc_mul_mpf(phase, t, prec, rnd), fone, prec, rnd)
            return mp.make_mpc(mpc_pow_int(t, a_int, prec, rnd) if a_mpf is None
                               else mpc_pow_mpf(t, a_mpf, prec, rnd))
        t = mpf_add(t, fone, prec, rnd)
        if a_mpf is None:
            return mp.make_mpf(mpf_pow_int(t, a_int, prec, rnd))
        try:
            return mp.make_mpf(mpf_pow(t, a_mpf, prec, rnd))
        except ComplexResult:  # a negative base to a fractional power, as mpf ** mpf
            return mp.make_mpc(mpc_pow((t, fzero), (a_mpf, fzero), prec, rnd))
    return BorelEvaluator(fn=fn, A=A, B=B)


BUILTIN_EVALUATORS: dict[str, BorelEvaluator] = {
    # m = 1, one pole at zeta = -1: valid for arg zeta in (-pi, pi)
    "euler": _binomial_evaluator(1, Fraction(-1), Fraction(1), A=4.0, B=0.05),
    # m = 2, branch point at modulus 1, argument 2*pi: arg zeta in (-2*pi, 2*pi)
    "example2": _binomial_evaluator(2, Fraction(1, 2), Fraction(1), A=2.0, B=0.25),
    "const1": _binomial_evaluator(1, Fraction(0), Fraction(1), A=1.0, B=0.0),
}


# ---------------------------------------------------------------------------
# built-in coefficient generators
# ---------------------------------------------------------------------------

def binomial_series(m: int, alpha, c, depth: int,
                    prec: PrecisionConfig | None = None) -> FormalSeries:
    """The series whose Borel transform is (1 + c zeta^(1/m))^alpha.

    a_n = binom(alpha, n - m) c^(n - m) Gamma(n/m) for m <= n <= depth (depth >= m),
    and a_0..a_{m-1} = 0.  binom(alpha, k) c^k is kept as an exact Fraction, by
    w <- w (alpha - k) c / (k + 1), and rounded once.  alpha and c are any
    finite value ``as_fraction`` reads exactly (int, float, Fraction, str)."""
    m = as_index(m, "binomial_series", "m", 1)
    depth = as_index(depth, "binomial_series", "depth", m)
    what = "alpha and c must be finite rationals"
    alpha, c = as_fraction(alpha, what), as_fraction(c, what)
    with working_precision(prec):
        coeffs, w = [0] * m, Fraction(1)
        for k in range(depth - m + 1):
            coeffs.append(as_mpf(w) * mp.gamma(mp.mpf(k + m) / m))
            w *= (alpha - k) * c / (k + 1)
        return FormalSeries(m, coeffs)


def euler_series(depth: int, prec: PrecisionConfig | None = None) -> FormalSeries:
    """a_0 = 0, a_k = (-1)^(k-1) (k-1)!: Borel transform 1/(1 + zeta), m = 1."""
    return binomial_series(1, -1, 1, depth, prec)


def example2_series(depth: int, prec: PrecisionConfig | None = None) -> FormalSeries:
    """a_{2+k} = binom(1/2, k) Gamma(k/2 + 1): Borel transform (1 + zeta^(1/2))^(1/2)."""
    return binomial_series(2, Fraction(1, 2), 1, depth, prec)


# --- psi series -------------------------------------------------------------
#
# chi(u) = psi(z(u)) with z = (2/3)u^3 - 2u (u = x^(1/2)) satisfies
# A2 chi'' + A1 chi' + A0 chi = 0 with the integer polynomials below
# (see docs/psi-series-derivation.md).  chi = sum c_k u^(-k) gives a
# triangular exact recurrence; converting through
# ytil = (2/3)^(1/3) z^(-1/3) = t (1 - 3 t^2)^(-1/3), t = 1/u,
# yields the scaled coefficients atil_n = a_n (3/2)^(n/3), exact rationals.

_PSI_A2 = {6: 4, 4: -24, 2: 36}
_PSI_A1 = {8: -16, 6: 112, 5: -8, 4: -240, 3: 40, 2: 144, 1: -48}
_PSI_A0 = {6: 64, 4: -443, 3: 32, 2: 950, 1: -96, 0: -563}
_PSI_PIVOT_POWER = 7  # max(deg A0, deg A1 - 1, deg A2 - 2)

def _psi_bracket(p: int, k: int) -> int:
    """Coefficient of chi_k in the equation at the power u^p; zero unless
    0 <= p + k <= _PSI_PIVOT_POWER, as the lowest powers of A0, A1, A2 are
    0, 1, 2."""
    return (_PSI_A0.get(p + k, 0) - k * _PSI_A1.get(p + k + 1, 0)
            + k * (k + 1) * _PSI_A2.get(p + k + 2, 0))


class _PsiRow(_GrowingRow):
    """atil_0, atil_1, ...; chi_k and atil_k kept as integer numerators over
    one shared denominator each."""

    def __init__(self):
        super().__init__(Fraction(1))
        self.chi = _SharedDenominatorRow(Fraction(1))
        self.atil = _SharedDenominatorRow(Fraction(1))
        # binom[n] = n (n + 3) ... (n + 3(j - 1)) at the last j used for atil_n,
        # so (-3)^j binom(-n/3, j) = binom[n] / j!
        self.binom = [1]

    def step(self, k: int) -> Fraction:
        chi, atil, binom = self.chi, self.atil, self.binom
        p = _PSI_PIVOT_POWER - k
        pivot = _psi_bracket(p, k)
        if pivot == 0:
            raise ArithmeticError(f"recurrence pivot vanished at k = {k}")
        s = sum(_psi_bracket(p, kk) * chi.num[kk]
                for kk in range(max(0, k - _PSI_PIVOT_POWER), k))
        chi_k = Fraction(-s, pivot * chi.den)
        chi.append(chi_k)
        # atil_n enters atil_k at j = (k - n)/2, one j higher than at atil_(k-2);
        # w = j_max!/j! puts every 1/j! over j_max!
        s, w = 0, 1
        for j in range((k - 1) // 2, 0, -1):
            n = k - 2 * j
            binom[n] *= n + 3 * (j - 1)
            s += atil.num[n] * binom[n] * w
            w *= j
        atil_k = chi_k - Fraction(s, atil.den * w)
        atil.append(atil_k)
        binom.append(1)
        return atil_k


_PSI = _PsiRow()


def psi_scaled_coefficients(depth: int) -> list[Fraction]:
    """Exact scaled coefficients [atil_0..atil_depth], atil_n = a_n (3/2)^(n/3).

    Both steps run in integers over a shared denominator: chi_k from the at
    most _PSI_PIVOT_POWER previous chi with a nonzero bracket, and atil_k
    from chi_k less every atil_n (-3)^j binom(-n/3, j), n = k - 2j, summed
    over the common denominator j_max! of the binomials.
    """
    depth = as_index(depth, "psi_scaled_coefficients", "depth")
    return _PSI.upto(depth)[:depth + 1]


# sup of the homothety factors for which the branch Borel transforms stay
# inside their validity region: the nearest transform singularity sits at
# distance 2 on the negative axis and the region meets that axis at -ln 2.
PSI_LAMBDA_SUP = float(2 / mp.log(2))


def psi_series(depth: int, prec: PrecisionConfig | None = None) -> FormalSeries:
    """Coefficients a_0..a_depth of the m = 3 WKB series psi (a_0 = 1)."""
    scaled = psi_scaled_coefficients(depth)
    with working_precision(prec):
        return FormalSeries(3, (as_mpf(frac) * mp.power(mp.mpf(2) / 3, mp.mpf(n) / 3)
                                for n, frac in enumerate(scaled)))


BUILTIN_SERIES: dict[str, Callable[[int, PrecisionConfig | None], FormalSeries]] = {
    "euler": euler_series,
    "example2": example2_series,
    "psi": psi_series,
}
