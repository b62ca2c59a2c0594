"""Classical (m = 1) factorial-series summation and its explicit error bounds.

Pipeline: the Stirling transform maps asymptotic coefficients a_1..a_{N+1}
to factorial-series coefficients b_0..b_N through exact first-kind Stirling
integers,

    b_n = (1/n!) sum_{k=1}^{n+1} (-1)^(n-k+1) s(n, k-1) a_k,

and the Borel sum is evaluated as

    a_0 + lambda * sum_{n<=N} Gamma(lambda z) Gamma(n+1) b_n^(lambda)
                               / Gamma(lambda z + n + 1),

with b^(lambda) derived from the homothety-scaled coefficients
a_n^(lambda) = lambda^(n-1) a_n.  Three explicit remainder estimates come
with it: the strip least-term bound ``r_as``, the factorial-series bound
``r_fact`` (with its large-N equivalent), and the coefficient bound
``b_bound``.

The Stirling transform cancels factorially large terms, so each b_n carries
its condition number sum_k |term_k| / |b_n|; work at 53 bits and the
stored reference tables below some depth are simply unreachable.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import mpmath as mp

from .combinatorics import _GrowingRow, stirling_first
from .errors import DomainError, InsufficientCoefficientsError
from .numerics import (PrecisionConfig, as_mpc, as_mpf, ensure_finite,
                       gamma_ratio, gamma_ratios, working_precision)
from .series import FormalSeries, GrowthEnvelope, PointLike, as_point, scale


@dataclass(frozen=True)
class SummationResult:
    """Outcome of one summation: estimate, truncation, and error information.

    Non-oracle methods always carry at least one of ``rigorous_bound`` /
    ``heuristic_error``.  ``condition_number`` reports the worst
    cancellation ratio met while forming the estimate; ``diverging`` is set
    by methods able to detect that their series has stopped converging.
    """

    estimate: mp.mpc
    N: int
    method: str
    rigorous_bound: mp.mpf | None = None
    heuristic_error: mp.mpf | None = None
    condition_number: mp.mpf | None = None
    diverging: bool | None = None

    def __post_init__(self):
        if self.method != "oracle" and self.rigorous_bound is None \
                and self.heuristic_error is None:
            raise DomainError("non-oracle results need a bound or an error estimate")


@dataclass(frozen=True)
class FactorialExpansion:
    """Factorial-series data (lambda, b_0..b_N, constant term a_0).

    ``condition`` holds the per-coefficient cancellation ratios of the
    Stirling transform, aligned with ``b``.
    """

    lam: mp.mpf
    b: tuple[mp.mpc, ...]
    a0: mp.mpc
    condition: tuple[mp.mpf, ...] | None = None

    @property
    def depth(self) -> int:
        return len(self.b) - 1


def _transform_term(av: Sequence[mp.mpc], n: int) -> tuple[mp.mpc, mp.mpf]:
    """b_n from a_1..a_{n+1} (``av[:n + 1]``), and its condition number
    sum_k |term_k| / |b_n|, at the ambient precision."""
    terms = [(-1) ** (n - k + 1) * stirling_first(n, k - 1) * av[k - 1]
             for k in range(1, n + 2)]
    nfact = mp.factorial(n)
    b_n = mp.fsum(terms, absolute=False) / nfact
    gross = mp.fsum(terms, absolute=True) / nfact
    cond = gross / abs(b_n) if b_n != 0 else mp.inf if gross != 0 else mp.mpf(1)
    return b_n, cond


def stirling_transform(a: Sequence, prec: PrecisionConfig | None = None,
                       with_condition: bool = False):
    """Map coefficients a_1..a_{N+1} (list WITHOUT the constant term) to
    factorial coefficients b_0..b_N.

    Exact Stirling integers multiply working-precision coefficients; terms
    are accumulated with mpmath's compensated ``fsum``.  With
    ``with_condition`` also returns sum_k|term| / |b_n| per coefficient.
    """
    with working_precision(prec):
        av = [as_mpc(x) for x in a]
        bs, conds = [], []
        for n in range(len(av)):
            b_n, cond = _transform_term(av, n)
            bs.append(b_n)
            conds.append(cond)
        if with_condition:
            return bs, conds
        return bs


class _FactorialRow(_GrowingRow):
    """(b_n, condition number of b_n) for one series, lambda and precision."""

    def __init__(self, f: FormalSeries, lam: mp.mpf, prec: PrecisionConfig):
        self.prec = prec
        with working_precision(prec):
            fs = scale(f, lam, prec) if lam != 1 else f
            self.a = [as_mpc(x) for x in fs.coefficients[1:]]
        super().__init__(self.step(0))

    def step(self, n: int) -> tuple[mp.mpc, mp.mpf]:
        with working_precision(self.prec):
            return _transform_term(self.a, n)


def factorial_expansion(f: FormalSeries, lam=1, N: int | None = None,
                        prec: PrecisionConfig | None = None) -> FactorialExpansion:
    """Build the lambda-scaled factorial expansion of an m = 1 series.

    Produces b_0..b_N; needs coefficients a_1..a_{N+1}.  By default uses
    every stored coefficient (N = n_max - 1).  The Stirling transform runs
    once per series, lambda and precision: its rows are cached on ``f`` and
    only ever extended, and each call returns their first N + 1 entries.
    """
    if f.m != 1:
        raise DomainError("factorial_expansion needs an unramified (m = 1) series; "
                          "use branch or generalized for m > 1")
    if N is None:
        N = f.n_max - 1
    if N < 0:
        raise DomainError("series must store at least a_0, a_1")
    f.require_depth(N + 1)
    with working_precision(prec) as cfg:
        lv = as_mpf(lam)
        row = f._derived(("factorial", lv, cfg.mantissa_bits),
                         lambda: _FactorialRow(f, lv, cfg))
        b, cond = zip(*row.upto(N)[:N + 1])
        return FactorialExpansion(lam=lv, b=b, a0=f.coefficients[0], condition=cond)


def _first_omitted_estimate(b_next, kernel, z) -> mp.mpf:
    """Practical first-omitted-term error estimate of the factorial series.

    |b_{N+1}| |Gamma(lambda z)| Gamma(N+2) / (Re z |Gamma(lambda z + N + 1)|),
    from the last kernel K_N = Gamma(lambda z) Gamma(N+1) / Gamma(lambda z + N + 1)
    of the sum as (N+1) K_N: the (N+1)-st coefficient against the running
    kernel, with the tail of the Laplace integral contributing the 1/Re z
    factor.  This matches the printed error columns of the reference tables
    to their two significant digits (factorial and branch methods).
    """
    return abs(b_next) * abs(kernel) / mp.re(z)


def check_lambda_permitted(lam, envelope: GrowthEnvelope | None) -> None:
    """Warn (never fail) when lambda exceeds the envelope's validity factor.

    Values beyond the permitted range often accelerate convergence in
    practice, so they are allowed; the warning keeps the theory's guarantee
    boundary visible.
    """
    if envelope is not None and envelope.lam is not None:
        if as_mpf(lam) > as_mpf(envelope.lam) * (1 + mp.mpf(2) ** -40):
            warnings.warn(
                f"lambda = {float(lam):g} exceeds the envelope's permitted factor "
                f"{float(envelope.lam):g}; convergence is no longer guaranteed",
                stacklevel=3)


def factorial_series_sum(e: FactorialExpansion, z: PointLike, N: int,
                         envelope: GrowthEnvelope | None = None,
                         prec: PrecisionConfig | None = None) -> SummationResult:
    """Partial factorial-series sum a_0 + lambda sum_{n<=N} (kernel) b_n.

    Caller is responsible for Re z > max(B, 1/lambda) when convergence to
    the Borel sum is claimed.  ``heuristic_error`` is the first-omitted-term
    estimate (needs b_{N+1}); ``rigorous_bound`` is emitted when a region
    envelope is supplied.
    """
    if N < 0:
        raise DomainError("N must be nonnegative")
    if N + 1 > e.depth:
        raise InsufficientCoefficientsError(
            f"expansion stores b_0..b_{e.depth}; N = {N} needs b_{N + 1} for its estimate")
    with working_precision(prec):
        zc = as_point(z, prec).projection(prec)
        if not mp.re(zc) > 0:
            raise DomainError("factorial series needs Re z > 0")
        check_lambda_permitted(e.lam, envelope)
        return _factorial_sum(e, zc, N, gamma_ratios(e.lam * zc, 1, N + 1, prec),
                              envelope, prec)


def _factorial_sum(e: FactorialExpansion, zc: mp.mpc, N: int, kernels: list,
                   envelope: GrowthEnvelope | None, prec: PrecisionConfig | None
                   ) -> SummationResult:
    """The body of :func:`factorial_series_sum` at z = ``zc`` (Re zc > 0),
    given the kernels Gamma(lambda z) Gamma(n+1) / Gamma(lambda z + n + 1)
    for n <= N; ``e`` stores b_0..b_{N+1}."""
    with working_precision(prec):
        total = mp.fsum((kernels[n] * e.b[n] for n in range(N + 1)), absolute=False)
        estimate = e.a0 + e.lam * total
        heuristic = _first_omitted_estimate(e.b[N + 1], (N + 1) * kernels[N], zc)
        rigorous = None
        if envelope is not None and envelope.lam is not None:
            rigorous = r_fact(e.lam, envelope.A, envelope.B, N, zc, prec)
        cond = max(e.condition[:N + 2]) if e.condition else None
        return SummationResult(estimate=ensure_finite(estimate), N=N,
                               method="factorial", rigorous_bound=rigorous,
                               heuristic_error=heuristic, condition_number=cond)


# ---------------------------------------------------------------------------
# explicit bounds
# ---------------------------------------------------------------------------

def _require_halfplane(z, B, prec=None) -> mp.mpc:
    zc = as_mpc(z)
    if not mp.re(zc) > as_mpf(B):
        raise DomainError(f"bound needs Re z > B, got Re z = {mp.re(zc)}, B = {B}")
    return zc


def r_as(r, A, B, n: int, z, prec: PrecisionConfig | None = None) -> mp.mpf:
    """Least-term remainder bound on a strip of half-width r:

        A e^(B r) (n!/r^n) / ( |z|^n (Re z - B) ).
    """
    with working_precision(prec):
        rv, Av, Bv = as_mpf(r), as_mpf(A), as_mpf(B)
        if not (rv > 0 and Av > 0 and Bv > 0):
            raise DomainError("r_as needs positive r, A, B")
        zc = _require_halfplane(z, Bv, prec)
        return ensure_finite(
            Av * mp.exp(Bv * rv) * mp.factorial(n) / mp.power(rv, n)
            / (mp.power(abs(zc), n) * (mp.re(zc) - Bv)))


def r_fact(lam, A, B, N: int, z, prec: PrecisionConfig | None = None) -> mp.mpf:
    """Factorial-series remainder bound

        (A/(lam B)^(lam B)) ((N+lam B+1)^(N+lam B+1) / (N+1)^N)
            |Gamma(lam z) Gamma(N+1) / (Gamma(lam z+N+1) (Re z - B))|.

    Reduces to the unscaled bound at lam = 1.
    """
    with working_precision(prec):
        lv, Av, Bv = as_mpf(lam), as_mpf(A), as_mpf(B)
        if not (lv > 0 and Av > 0 and Bv > 0):
            raise DomainError("r_fact needs positive lambda, A, B")
        zc = _require_halfplane(z, Bv, prec)
        lB = lv * Bv
        shape = mp.power(N + lB + 1, N + lB + 1) / mp.power(N + 1, N)
        kernel = abs(gamma_ratio(lv * zc, N, 1, prec))
        return ensure_finite(Av / mp.power(lB, lB) * shape * kernel / (mp.re(zc) - Bv))


def r_fact_asymptotic(lam, A, B, N: int, z,
                      prec: PrecisionConfig | None = None) -> mp.mpf:
    """Large-N equivalent of ``r_fact``:

        A e^(lam B (1 - ln(lam B))) / N^(lam (Re z - B) - 1)
            * |Gamma(lam z)| / (Re z - B).
    """
    if N < 1:
        raise DomainError("the asymptotic form needs N >= 1")
    with working_precision(prec):
        lv, Av, Bv = as_mpf(lam), as_mpf(A), as_mpf(B)
        if not (lv > 0 and Av > 0 and Bv > 0):
            raise DomainError("r_fact_asymptotic needs positive lambda, A, B")
        zc = _require_halfplane(z, Bv, prec)
        lB = lv * Bv
        expo = lv * (mp.re(zc) - Bv) - 1
        return ensure_finite(
            Av * mp.exp(lB * (1 - mp.log(lB))) / mp.power(N, expo)
            * abs(mp.gamma(lv * zc)) / (mp.re(zc) - Bv))


def b_bound(lam, A, B, n: int, prec: PrecisionConfig | None = None) -> mp.mpf:
    """Coefficient bound |b_n^(lambda)| <= A (n+lam B)^(n+lam B) / ((lam B)^(lam B) n^n)."""
    if n < 1:
        raise DomainError("b_bound needs n >= 1")
    with working_precision(prec):
        lv, Av, Bv = as_mpf(lam), as_mpf(A), as_mpf(B)
        if not (lv > 0 and Av > 0 and Bv > 0):
            raise DomainError("b_bound needs positive lambda, A, B")
        lB = lv * Bv
        return ensure_finite(
            Av * mp.power(n + lB, n + lB) / (mp.power(lB, lB) * mp.power(n, n)))


def least_term_index(r, z) -> int:
    """Optimal strip truncation index floor(r |z|)."""
    rv = as_mpf(r)
    if not rv > 0:
        raise DomainError("least_term_index needs r > 0")
    zm = z.modulus if hasattr(z, "modulus") else abs(as_mpc(z))
    return int(mp.floor(rv * zm))


@dataclass(frozen=True)
class BoundRow:
    n: int
    log_r_as_ln2: mp.mpf
    log_r_as_halfpi: mp.mpf
    log_r_fact: mp.mpf


def bound_comparison_table(A, B, z, n_max: int,
                           prec: PrecisionConfig | None = None) -> list[BoundRow]:
    """Rows (n, log10 R_as(ln 2), log10 R_as(pi/2), log10 R_fact(1, n)).

    The two strip half-widths are the inner/outer strips of the
    log-of-disk region, so the three curves compare least-term truncation
    against the factorial-series bound on the same envelope.
    """
    with working_precision(prec):
        zc = _require_halfplane(z, B, prec)
        rows = []
        for n in range(n_max + 1):
            rows.append(BoundRow(
                n=n,
                log_r_as_ln2=mp.log10(r_as(mp.log(2), A, B, n, zc, prec)),
                log_r_as_halfpi=mp.log10(r_as(mp.pi / 2, A, B, n, zc, prec)),
                log_r_fact=mp.log10(r_fact(1, A, B, n, zc, prec)),
            ))
        return rows
