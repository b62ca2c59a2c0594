"""Fractional-power (m > 1) Borel summation, and ``summate``: one sum by any method.

Two independent routes to the same Borel sum:

* branch route: split f into m ordinary series f_l by residue class of the
  index mod m, sum each with the classical factorial series at the
  projected point, reassemble with z^((m-l)/m) prefactors;

* generalized route: expand directly against fractional beta kernels,

      a_0 + lambda sum_{n>=1} Gamma(n/m) Gamma(lambda z) d_n^(lambda)
                              / Gamma(lambda z + n/m),

  where d_n = (a_n + sum_{l+jm=n, l,j>=1} d_{l/m, j} a_l) / Gamma(n/m)
  and the d_{r,j} are the exact rational coefficients from
  :mod:`borelsum.combinatorics`.  In each residue class n = l + jm the
  kernels form one chain, K_{j+1} = K_j (l/m + j) / (lambda z + l/m + j):
  the factorial kernel's recurrence with offset l/m in place of 1.  The
  floating d_n of the lambda-scaled (and, for the rotated sum, rotated)
  coefficients, with their condition numbers, are the coefficient row of
  :mod:`borelsum.classical`, cached on the series per lambda, theta and
  precision, so a sweep over N forms each d_n once.  At m = 1 that row is
  the factorial one: d_{n+1} = b_n.

The two truncation conventions differ on purpose: branch sums truncate each
branch at the same per-branch depth N, generalized sums truncate at flat
index n <= N, and the flat index runs m times faster.

Both routes hand their coefficient rows to the one kernel-sum body of
:mod:`borelsum.classical`, which builds the kernels and the whole result
(the branch route's ``r_fact`` bound too), so they share its
first-omitted-term estimate, condition number and divergence flag.
Neither checks the analytic hypotheses behind convergence (that would
need the Borel transform's singularity set); instead term growth past the
smallest term flips ``diverging``.
"""

from __future__ import annotations

from functools import lru_cache

import mpmath as mp

from .classical import (SummationResult, _expansion, _halfplane, _kernel_sum,
                        factorial_expansion, factorial_series_sum, least_term_index, r_as)
from .errors import DomainError
from .numerics import PrecisionConfig, _finite, as_index, as_mpf, working_precision
from .oracle import BorelEvaluator, _quadrature
from .series import (FormalSeries, GrowthEnvelope, RamifiedPoint, _partial_sum, _power,
                     branch_split)

# z^((m-l)/m), l = 1..m, of the most recent point at the ambient precision, which the
# key names: the sheet is in the key, not the projection
_BRANCH_WEIGHTS = lru_cache(maxsize=1)(
    lambda z, m, prec: [_power(z, m - l, m) for l in range(1, m + 1)])


def branch_sum(f: FormalSeries, lam, z: RamifiedPoint, N: int,
               envelope: GrowthEnvelope | None = None,
               prec: PrecisionConfig | None = None) -> SummationResult:
    """Assemble a_0 + sum_l z^((m-l)/m) * (factorial series of branch l at z projected).

    Each branch is a factorial series sum at per-branch depth N, all at the
    same lambda z projected, so one kernel chain serves every branch.  The
    kernel-sum body weighs the per-branch heuristic errors and, given an
    envelope, the one ``r_fact`` every branch shares by the same
    |z^((m-l)/m)|; the condition number is the worst branch's,
    ``diverging`` any branch's.
    Needs flat coefficients up to a_{l + m(N+1)} for every branch.
    """
    RamifiedPoint.require(z, "branch_sum")
    N = as_index(N, "branch_sum")
    f.require_depth(f.m * (N + 2))
    with working_precision(prec) as cfg:
        zdot = _halfplane(z, 0, prec)
        a0, branches = branch_split(f)
        weights, lv = _BRANCH_WEIGHTS(z, f.m, cfg), as_mpf(lam)
        parts = [(weight, _expansion(fl, lv, None, N + 2, cfg))
                 for weight, fl in zip(weights, branches)]
        return _kernel_sum("branch", N, parts, a0, N + 1, 1, zdot, prec, envelope)


def generalized_coefficients(f: FormalSeries, n_max: int | None = None,
                             prec: PrecisionConfig | None = None) -> list[mp.mpc]:
    """Kernel coefficients [d_1, ..., d_{n_max}] of the generalized expansion.

    d_n = (sum over l + j m = n, l >= 1, j >= 0 of d_{l/m, j} a_l) / Gamma(n/m),
    with d_{r,0} = 1; for n <= m the sum is a_n alone.  A prefix of the
    coefficient row cached on ``f`` at lambda = 1, unrotated.
    """
    n_max = f.n_max if n_max is None else as_index(n_max, "generalized_coefficients", "n_max")
    with working_precision(prec) as cfg:
        return list(_expansion(f, mp.mpf(1), None, n_max, cfg).b)


def generalized_factorial_sum(f: FormalSeries, lam, z: RamifiedPoint, N: int,
                              prec: PrecisionConfig | None = None) -> SummationResult:
    """Generalized factorial series truncated at flat index n <= N.

    Needs d_{N+1}, hence coefficients up to a_{N+1}, for the
    first-omitted-term estimate; no growth envelope enters it.  Its tail
    factor lambda z + (N+1)/m - 1 makes the m = 1 sum at N + 1 the factorial one at N.
    """
    return _generalized_sum(f, None, lam, z, N, prec)


def rotated_generalized_sum(f: FormalSeries, theta, lam, z: RamifiedPoint, N: int,
                            prec: PrecisionConfig | None = None) -> SummationResult:
    """Sum in the rotated direction: the generalized series of the rotated
    coefficients, evaluated at z e^(i theta)."""
    RamifiedPoint.require(z, "rotated_generalized_sum")
    return _generalized_sum(f, theta, lam, z, N, prec)


def _generalized_sum(f: FormalSeries, theta, lam, z: RamifiedPoint, N: int,
                     prec: PrecisionConfig | None) -> SummationResult:
    """The one body of both generalized sums, ``theta`` None when unrotated:
    the kernel sum over d_1..d_{N+1} of the coefficient row cached on ``f``."""
    N = as_index(N, "generalized_factorial_sum" if theta is None else "rotated_generalized_sum")
    with working_precision(prec) as cfg:
        if theta is not None:
            theta = _finite(theta, "theta")
            z = z.rotated(theta)
        lv = as_mpf(lam)
        zdot = _halfplane(z, 0, prec)
        e = _expansion(f, lv, theta, N + 1, cfg)
        method = "generalized" if theta is None else "generalized-rotated"
        return _kernel_sum(method, N, [(1, e)], 0, N, f.m, zdot, prec)


def least_term_sum_ramified(f: FormalSeries, r, z: RamifiedPoint,
                            envelope: GrowthEnvelope | None = None,
                            prec: PrecisionConfig | None = None) -> SummationResult:
    """Least-term summation: partial sum to flat index m*n with n = floor(r |z|).

    The practical error estimate is
    max_l |a_{l+mn}| * (sum_{i<m} |z|^(i/m)) / (|z|^n Re(z projected));
    an envelope on the strip gives ``rigorous_bound``, ``r_as_ramified`` at n.
    """
    RamifiedPoint.require(z, "least_term_sum_ramified")
    with working_precision(prec):
        n = least_term_index(r, z)
        f.require_depth(f.m * n + f.m)
        zdot = _halfplane(z, 0, prec)
        estimate = _partial_sum(f, z, f.m * n)
        peak = max(abs(f.coefficients[l + f.m * n]) for l in range(1, f.m + 1))
        heuristic = peak * _branch_weights(z, f.m) / (mp.power(z.modulus, n) * mp.re(zdot))
        rigorous = None if envelope is None else \
            r_as_ramified(r, envelope.A, envelope.B, n, z, f.m, prec)
        return SummationResult(estimate=estimate, N=f.m * n, method="least-term",
                               rigorous_bound=rigorous, heuristic_error=heuristic)


def _branch_weights(z: RamifiedPoint, m: int) -> mp.mpf:
    """sum_{i=0}^{m-1} |z|^(i/m): the branch prefactors of a ramified bound."""
    return mp.fsum(mp.power(z.modulus, mp.mpf(i) / m) for i in range(m))


def r_as_ramified(r, A, B, n: int, z: RamifiedPoint, m: int,
                  prec: PrecisionConfig | None = None) -> mp.mpf:
    """Ramified least-term bound: ``r_as`` at z projected, times the branch
    weights, with (A, B) the envelope on the strip (A the largest branch one),

        A e^(B r) (n!/r^n) (sum_{i=0}^{m-1} |z|^(i/m)) / (|z|^n (Re z. - B)).
    """
    RamifiedPoint.require(z, "r_as_ramified")
    m = as_index(m, "r_as_ramified", "m", 1)
    with working_precision(prec):
        return r_as(r, A, B, n, z, prec) * _branch_weights(z, m)


def summate(f: FormalSeries | None, method: str, z: RamifiedPoint, N: int = 0, *, lam=1,
            theta=0, envelope: GrowthEnvelope | None = None, r=None,
            evaluator: BorelEvaluator | None = None, tol=None,
            prec: PrecisionConfig | None = None) -> SummationResult:
    """One summation of ``f`` at ``z`` by ``method`` through its route, which forms the
    bound from ``envelope``: on the strip ``r`` for least-term (no N or lam), on the
    lambda-region for factorial and branch; generalized (rotated when ``theta`` != 0)
    takes none, and the oracle reads no series but ``evaluator`` on the ray ``theta``;
    its ``heuristic_error`` is the rule's error estimate plus the tail dropped at T."""
    if method == "least-term":
        if r is None:
            raise DomainError("the least-term method needs a strip half-width r")
        return least_term_sum_ramified(f, r, z, envelope, prec)
    if method == "factorial":  # the sum's N, checked before the expansion reads N + 1
        N = as_index(N, "factorial_series_sum")
        return factorial_series_sum(factorial_expansion(f, lam, N + 1, prec), z, N, envelope, prec)
    if method == "branch":
        return branch_sum(f, lam, z, N, envelope, prec)
    if method == "generalized":
        if as_mpf(theta):
            return rotated_generalized_sum(f, theta, lam, z, N, prec)
        return generalized_factorial_sum(f, lam, z, N, prec)
    if method != "oracle":
        raise DomainError(f"unknown summation method {method!r}")
    if evaluator is None:
        raise DomainError("the oracle method needs a Borel evaluator")
    zc = z.projection(prec) if isinstance(z, RamifiedPoint) else z  # as the factorial route
    value, error = _quadrature(evaluator, theta, zc, tol, prec)
    return SummationResult(value, N=0, method="oracle", heuristic_error=error)
