"""Ground truth: direct Laplace-integral quadrature and built-in test series.

``laplace_quadrature`` evaluates a Borel sum a_0 + int_0^(inf e^(i theta))
g(zeta) e^(-z zeta) dzeta by a double-exponential (tanh-sinh) rule on a
finite segment [0, T], with T chosen from the evaluator's growth envelope
so the dropped tail A e^((B - c) T)/(c - B), c = Re(z e^(i theta)), sits
far below the requested tolerance.  The tanh-sinh change of variable never
evaluates the integrand at the endpoints, which is what makes integrable
zeta^(1/m - 1) behaviour at 0 harmless.

Built-in series:

* ``euler_series``  (m = 1): a_k = (-1)^(k-1) (k-1)!, Borel transform
  1/(1+zeta), the standard bounded test case;
* ``example2_series`` (m = 2): coefficients of the expansion whose Borel
  transform is (1 + zeta^(1/2))^(1/2); the transform has a second-sheet
  singularity at modulus 1, argument 2*pi, which the direct (theta = 0)
  generalized expansion cannot see, making it the canonical divergence
  demonstration;
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

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import mpmath as mp

from .combinatorics import _GrowingRow, _SharedDenominatorRow
from .errors import DomainError, QuadratureError
from .numerics import PrecisionConfig, as_mpc, as_mpf, ensure_finite, working_precision
from .series import FormalSeries, RamifiedPoint

# ---------------------------------------------------------------------------
# Borel evaluators and quadrature
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BorelEvaluator:
    """A Borel transform evaluable along rays of the m-sheeted cover.

    ``fn`` maps a cover point zeta = (rho, theta) to a complex value.  The
    growth pair (A, B) bounds |fn| <= A e^(B rho) on the valid rays and
    drives the truncation of the Laplace integral; ``singularities`` is
    documentation only.
    """

    name: str
    fn: Callable[[RamifiedPoint], mp.mpc]
    m: int = 1
    A: float = 1.0
    B: float = 0.0
    a0: complex = 0
    valid_rays: str = "all directions"
    singularities: tuple = ()

    def __call__(self, zeta: RamifiedPoint) -> mp.mpc:
        return self.fn(zeta)


def laplace_quadrature(g: BorelEvaluator, theta, z, tol: float | None = None,
                       prec: PrecisionConfig | None = None) -> mp.mpc:
    """a_0 + int over the ray arg zeta = theta of g(zeta) e^(-z zeta) dzeta.

    Requires Re(z e^(i theta)) > B for the evaluator's growth rate.  The
    result's absolute error is estimated and must reach ``tol`` (default:
    the precision's default tolerance), else :class:`QuadratureError`.
    """
    with working_precision(prec) as cfg:
        tolv = as_mpf(tol) if tol is not None else cfg.default_tolerance
        if not tolv > 0:
            raise DomainError("tol must be positive")
        th = as_mpf(theta)
        zc = as_mpc(z)
        w = zc * mp.exp(1j * th)
        c = mp.re(w)
        if not c > g.B:
            raise DomainError(
                f"laplace_quadrature needs Re(z e^(i theta)) > B = {g.B}, got {c}")
        # truncation point: tail bound A e^((B-c)T)/(c-B) <= tol/8
        T = (mp.log(8 * as_mpf(g.A) / (tolv * (c - as_mpf(g.B)))) ) / (c - as_mpf(g.B))
        T = max(T, 8 / c)

        def integrand(rho):
            zeta = RamifiedPoint(rho, th) if rho > 0 else None
            val = g(zeta) if zeta is not None else mp.mpc(0)
            return val * mp.exp(-w * rho)

        # extra digits so the rule's own roundoff stays below tol
        with mp.workprec(cfg.mantissa_bits + 20):
            best = None
            for maxdegree in (8, 10, 12):
                val, err = mp.quad(integrand, [0, min(1 / c, T / 2), T],
                                   error=True, maxdegree=maxdegree)
                best = val
                if err < tolv / 2:
                    return ensure_finite(mp.mpc(g.a0) + mp.exp(1j * th) * mp.mpc(best))
        raise QuadratureError(
            f"quadrature error estimate {mp.nstr(err, 3)} did not reach tol = {mp.nstr(tolv, 3)}")


def _euler_transform(zeta: RamifiedPoint) -> mp.mpc:
    # formed at the ambient precision, as the quadrature runs with guard bits
    return 1 / (1 + zeta.modulus * mp.exp(1j * zeta.argument))


def _example2_transform(zeta: RamifiedPoint) -> mp.mpc:
    # (1 + zeta^(1/2))^(1/2) read on the cover: zeta^(1/2) uses the full argument
    root = mp.sqrt(zeta.modulus) * mp.exp(1j * zeta.argument / 2)
    return mp.sqrt(1 + root)


def _const1_transform(zeta: RamifiedPoint) -> mp.mpc:
    return mp.mpc(1)


BUILTIN_EVALUATORS: dict[str, BorelEvaluator] = {
    "euler": BorelEvaluator(name="euler", fn=_euler_transform, m=1,
                            A=4.0, B=0.05, a0=0,
                            valid_rays="arg zeta in (-pi, pi), away from -1",
                            singularities=(-1,)),
    "example2": BorelEvaluator(name="example2", fn=_example2_transform, m=2,
                               A=2.0, B=0.25, a0=0,
                               valid_rays="arg zeta in (-2*pi, 2*pi) on the double cover",
                               singularities=("modulus 1, argument 2*pi",)),
    "const1": BorelEvaluator(name="const1", fn=_const1_transform, m=1,
                             A=1.0, B=0.0, a0=0),
}


# ---------------------------------------------------------------------------
# built-in coefficient generators
# ---------------------------------------------------------------------------

def euler_series(depth: int, prec: PrecisionConfig | None = None) -> FormalSeries:
    """a_0 = 0, a_k = (-1)^(k-1) (k-1)! for 1 <= k <= depth (m = 1)."""
    if depth < 1:
        raise DomainError("depth must be positive")
    with working_precision(prec):
        coeffs = [mp.mpc(0)]
        coeffs += [mp.mpc((-1) ** (k - 1)) * mp.factorial(k - 1)
                   for k in range(1, depth + 1)]
        return FormalSeries(1, coeffs)


def example2_series(depth: int, prec: PrecisionConfig | None = None) -> FormalSeries:
    """m = 2 series with Borel transform (1 + zeta^(1/2))^(1/2).

    The term in z^(-(1 + k/2)) sits at flat index n = 2 + k:
    a_{2+k} = (-1)^(k+1) Gamma(k/2+1) Gamma(k-1/2) / (2 sqrt(pi) Gamma(k+1)),
    and a_0 = a_1 = 0 (the series starts at 1/z).
    """
    if depth < 1:
        raise DomainError("depth must be positive")
    with working_precision(prec):
        coeffs = [mp.mpc(0), mp.mpc(0)]
        for k in range(0, depth - 1):
            coeffs.append(mp.mpc(
                (-1) ** (k + 1)
                * mp.gamma(mp.mpf(k) / 2 + 1) * mp.gamma(k - mp.mpf(1) / 2)
                / (2 * mp.sqrt(mp.pi) * mp.gamma(k + 1))))
        return FormalSeries(2, coeffs[:depth + 1])


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
    if depth < 0:
        raise DomainError("depth must be nonnegative")
    return _PSI.upto(depth)[:depth + 1]


# sup of the homothety factors for which the branch Borel transforms stay
# inside their validity region: the nearest transform singularity sits at
# distance 2 on the negative axis and the region meets that axis at -ln 2.
PSI_LAMBDA_SUP = float(2 / mp.log(2))


def psi_series(depth: int, prec: PrecisionConfig | None = None) -> FormalSeries:
    """Coefficients a_0..a_depth of the m = 3 WKB series psi (a_0 = 1)."""
    scaled = psi_scaled_coefficients(depth)
    with working_precision(prec):
        coeffs = []
        for n, frac in enumerate(scaled):
            base = mp.mpf(frac.numerator) / frac.denominator
            coeffs.append(mp.mpc(base * mp.power(mp.mpf(2) / 3, mp.mpf(n) / 3)))
        return FormalSeries(3, coeffs)


BUILTIN_SERIES: dict[str, Callable[[int, PrecisionConfig | None], FormalSeries]] = {
    "euler": euler_series,
    "example2": example2_series,
    "psi": psi_series,
}
