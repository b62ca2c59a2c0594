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

The transform is the m = 1 generalized expansion of :mod:`borelsum.ramified`
(d_{k,j} = |s(k+j-1, k-1)|, so b_n = d_{n+1}): one coefficient row, cached
on the series, serves both, and one body, ``_kernel_sum``, forms every
factorial-type result from such rows, with its chains, tail and bound.  Each
coefficient carries its condition number, as the transform cancels
factorially large terms; work at 53 bits and the stored reference tables
below some depth are simply unreachable.  At every m each coefficient reads
one antidiagonal of exact d-weights, the Stirling row at m = 1, and is one
exact sum of its weighted parts over the rounded a_l, rounded once (N. Higham,
*Accuracy and Stability of Numerical Algorithms*, 2nd ed., SIAM 2002, ch. 4),
then divided by Gamma(n/m).
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial
from typing import Sequence

import mpmath as mp
from mpmath.libmp import (from_int, fzero, mpc_abs, mpc_mul, mpf_div, mpf_lt, mpf_pos, mpf_shift,
                          mpf_sum)

from .combinatorics import _base_row, _next_antidiagonal
from .errors import DomainError, InsufficientCoefficientsError
from .numerics import (PRECISION_LOCK, PrecisionConfig, _Chain, _GrowingRow, _finite, _positive,
                       as_index, as_mpc, as_mpf, ensure_finite, working_precision)
from .series import (FormalSeries, GrowthEnvelope, PointLike, RamifiedPoint, _homothety,
                     _rotation)


@dataclass(frozen=True)
class SummationResult:
    """Outcome of one summation: estimate, truncation, and error information.

    Non-oracle methods always carry at least one of ``rigorous_bound`` /
    ``heuristic_error``; the oracle's ``heuristic_error`` is its quadrature's.
    ``condition_number`` is the worst cancellation ratio met, the larger of two
    parts: the coefficients' own (of the b_n or d_n read, from the coefficient
    row) and the sum's, (|a_0| + lambda sum |term|) / |estimate|, the worst
    over a branch sum's branches.  Every factorial-type result comes from
    ``_kernel_sum`` and sets ``diverging``.
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

    ``condition`` holds the per-coefficient cancellation ratios, aligned with
    ``b``.  A generalized sum carries its d_1..d_{N+1} as ``b``.  ``_row`` is
    the coefficient row the expansion was read from, None when built by hand.
    """

    lam: mp.mpf
    b: tuple[mp.mpc, ...]
    a0: mp.mpc
    condition: tuple[mp.mpf, ...]
    _row: _CoefficientRow | None = field(init=False, default=None, repr=False, compare=False)

    @property
    def depth(self) -> int:
        return len(self.b) - 1


def stirling_transform(a: Sequence, prec: PrecisionConfig | None = None) -> list[mp.mpc]:
    """Map coefficients a_1..a_{N+1} (list WITHOUT the constant term) to
    factorial coefficients b_0..b_N: the rows of :func:`factorial_expansion`
    at lambda = 1, whose ``condition`` holds each b_n's condition number.
    """
    with working_precision(prec):
        f = FormalSeries(1, [0, *a])
    return list(factorial_expansion(f, 1, None, prec).b)


class _CoefficientRow(_GrowingRow):
    """(c_n, condition number of c_n) of one series, lambda, theta and
    precision, for n >= 1 (v_0 is None): the kernel coefficients

        c_n = sum_{l <= n, l = n mod m} d_{l/m, (n-l)/m} a_l / Gamma(n/m)

    of the a_l with the factors of ``rotate`` (unless theta is None) and
    ``scale`` on them; at m = 1, c_n = b_{n-1}.  The l of c_n are l0, l0 + m,
    ..., n, and its weights antidiagonal s = (n - 1) // m of the class
    r0 = l0/m (``combinatorics._next_antidiagonal``): d_{l/m,(n-l)/m} den_s,
    integers over one D = den_s, the Stirling row |s(s, .)| over D = 1 at
    r0 = 1.  The row keeps the last antidiagonal of each class and steps it
    once per c_n; ``upto`` grows the classes' shared base rows first.  Each
    part Re a_l, Im a_l times its weight k is exact, a raw mpf tuple;
    ``mpf_sum`` at precision 0 sums the real parts, the imaginary parts and
    their moduli exactly, and one ``mpf_div`` by D rounds each sum once.  So
    c_n is the correctly rounded exact sum over the rounded a_l, whatever the
    order or the exponent gaps of its parts (up to the 10^6 bits ``mpf_sum``
    keeps), divided by Gamma(n/m).  The condition number is sum_l |d|
    (|Re a_l| + |Im a_l|) over |sum_l d a_l|: sum |t| over |sum t| on real
    terms t, within sqrt 2 of it on complex ones.  The row holds f's m and
    coefficients, not f, so f pickles with it.
    """

    def __init__(self, f: FormalSeries, lam: mp.mpf, theta: mp.mpf | None,
                 prec: PrecisionConfig):
        self.m, self.coefficients = f.m, f.coefficients
        self.lam, self.theta, self.prec = lam, theta, prec
        self.a = [None]  # the rotated and scaled a_1..a_n, from index 1
        self.bases = [None]  # the base row of each class l0 = 1, 2, ... read so far
        self.walks: dict[int, list[int]] = {}  # the last antidiagonal of each class l0
        super().__init__(None)

    def upto(self, n: int) -> list:
        if len(self.values) <= n:
            with working_precision(self.prec):  # which holds PRECISION_LOCK
                m, bases = self.m, self.bases
                bases += [_base_row(Fraction(l0, m)) for l0 in range(len(bases), min(m, n) + 1)]
                for l0, base in enumerate(bases[1:], 1):  # grown here: a step builds no Fraction
                    base.upto((n - l0) // m)  # the last antidiagonal that class l0 reads
                super().upto(n)
        return self.values

    def step(self, n: int) -> tuple[mp.mpc, mp.mpf]:
        m, a = self.m, self.a
        an = self.coefficients[n]
        if self.theta is not None:
            an = an * _rotation(self.theta, n, m)
        a.append(_homothety(self.lam, n, m) * an)
        s = (n - 1) // m
        l0 = n - s * m  # c_n sums a_l0, a_(l0+m), ..., a_n
        base = self.bases[l0]
        walk = self.walks[l0] = _next_antidiagonal(base, s, self.walks[l0]) if s else [1]
        # Re a_l and Im a_l times k, exact and unnormalised, into a list each:
        # mpf_sum at precision 0 takes a mantissa of any size and reads the bit
        # count only to drop a part past a 10^6-bit gap.  A zero part or weight is
        # left out (mpf_sum would skip it), so a real series builds no imaginary part
        re_parts, im_parts = parts = [], []
        for k, x in zip(walk, a[l0::m]):
            if k:
                for part, (sign, man, exp, bc) in zip(parts, x._mpc_):
                    if man:
                        part.append((sign ^ (k < 0), man * abs(k), exp, bc + k.bit_length()))
        prec, rnd = mp.mp._prec_rounding
        den = from_int(base.den[s])
        re = mpf_div(mpf_sum(re_parts, 0), den, prec, rnd)
        im = mpf_div(mpf_sum(im_parts, 0), den, prec, rnd)
        gross = mpf_div(mpf_sum(re_parts + im_parts, 0, absolute=True), den, prec, rnd)
        gamma = mp.gamma(mp.mpf(n) / m)
        c = mp.make_mpc((re, im)) / gamma
        gross = mp.make_mpf(gross) / gamma
        return c, gross / abs(c) if c != 0 else mp.inf if gross != 0 else mp.mpf(1)


def _expansion(f: FormalSeries, lam: mp.mpf, theta: mp.mpf | None, n: int,
               cfg: PrecisionConfig) -> FactorialExpansion:
    """c_1..c_n with their condition numbers, from the coefficient row cached
    on ``f`` at lambda, theta (0 shares the unrotated row) and precision.
    Call inside ``working_precision(cfg)``."""
    _finite(lam, "lambda", positive=True)
    f.require_depth(n)
    theta = theta or None
    row = f._derived((lam, theta, cfg.mantissa_bits),
                     lambda: _CoefficientRow(f, lam, theta, cfg))
    c, cond = zip(*row.upto(n)[1:n + 1]) if n else ((), ())
    e = FactorialExpansion(lam=lam, b=c, a0=f.coefficients[0], condition=cond)
    object.__setattr__(e, "_row", row)
    return e


def factorial_expansion(f: FormalSeries, lam=1, N: int | None = None,
                        prec: PrecisionConfig | None = None) -> FactorialExpansion:
    """Build the lambda-scaled factorial expansion of an m = 1 series.

    Produces b_0..b_N; needs coefficients a_1..a_{N+1}.  By default uses
    every stored coefficient (N = n_max - 1).  b_n is c_{n+1} of the
    coefficient row the generalized sums read, cached on ``f`` per lambda
    and precision and only ever extended, so the Stirling transform runs
    once per series, lambda and precision.
    """
    if f.m != 1:
        raise DomainError("factorial_expansion needs an unramified (m = 1) series; "
                          "use branch or generalized for m > 1")
    N = f.n_max - 1 if N is None else as_index(N, "factorial_expansion")
    if N < 0:
        raise DomainError("series must store at least a_0, a_1")
    with working_precision(prec) as cfg:
        return _expansion(f, as_mpf(lam), None, N + 1, cfg)


def check_lambda_permitted(lam, envelope: GrowthEnvelope | None) -> None:
    """Warn (never fail) when lambda exceeds the envelope's validity factor.

    Values beyond the permitted range often accelerate convergence in
    practice, so they are allowed; the warning keeps the theory's guarantee
    boundary visible.
    """
    if envelope is not None and as_mpf(lam) > as_mpf(envelope.lam) * (1 + mp.mpf(2) ** -40):
        frame, level = sys._getframe(1), 2  # the caller's line: the first frame outside borelsum
        while frame.f_globals.get("__name__", "").startswith("borelsum."):
            frame, level = frame.f_back, level + 1
        warnings.warn(
            f"lambda = {float(lam):g} exceeds the envelope's permitted factor "
            f"{float(envelope.lam):g}; convergence is no longer guaranteed",
            stacklevel=level)


def _halfplane(z: PointLike, B, prec: PrecisionConfig | None) -> mp.mpc:
    """The point of C* where a sum (B = 0) or a bound is taken, inside ``working_precision``:
    a cover point projected once, a complex number exactly as given; finite, with Re > B."""
    zc = z.projection(prec) if isinstance(z, RamifiedPoint) else as_mpc(z)
    if not (mp.isfinite(zc) and mp.re(zc) > as_mpf(B)):
        raise DomainError(f"needs finite z with Re z > {mp.nstr(B, 8)}, got {mp.nstr(zc, 8)}")
    return zc


def factorial_series_sum(e: FactorialExpansion, z: PointLike, N: int,
                         envelope: GrowthEnvelope | None = None,
                         prec: PrecisionConfig | None = None) -> SummationResult:
    """Partial factorial-series sum a_0 + lambda sum_{n<=N} (kernel) b_n.

    z is a cover point or a complex number with Re z > 0; the caller is
    responsible for Re z > max(B, 1/lambda) when convergence to the Borel
    sum is claimed.  ``heuristic_error`` is the first-omitted-term estimate
    |b_{N+1}| (N+1) |K_N| / Re z (needs b_{N+1}), which matches the printed
    error columns of the reference tables to their two significant digits;
    a region envelope gives ``rigorous_bound``, ``r_fact`` at N.  A hand-built
    ``e`` is checked: lambda finite and positive, one condition number per
    b_n, and numbers in every field (``_number``), else a DomainError.
    """
    N = as_index(N, "factorial_series_sum")
    if len(e.condition) != len(e.b):
        raise DomainError(f"expansion has {len(e.b)} b_n and {len(e.condition)} condition numbers")
    if N + 1 > e.depth:
        raise InsufficientCoefficientsError(
            f"expansion stores b_0..b_{e.depth}; N = {N} needs b_{N + 1} for its estimate")
    with working_precision(prec):
        _positive("factorial_series_sum", lam=_number(e.lam, "a number lambda"))
        _number(e.a0, "a number a0")
        zc = _halfplane(z, 0, prec)
        return _kernel_sum("factorial", N, [(1, e)], 0, N + 1, 1, zc, prec, envelope)


# the class chains of the most recent (w, m, bits), l -> chain at offset l/m, and
# the term rows there, coefficient row -> its _TermRow
_KERNEL_CHAINS = lru_cache(maxsize=1)(lambda w, m, bits: ({}, {}))


def _kernel(w, m: int, n: int) -> mp.mpc:
    """K_n = Gamma(w) Gamma(n/m) / Gamma(w + n/m), n >= 1, at the ambient precision.

    Each residue class n = l + jm is one kernel chain at offset l/m, the
    factorial kernel's recurrence with l/m in place of 1: K_n is chain element
    j, ``gamma_ratio(w, j, Fraction(l, m))``.  The chains of the last (w, m,
    precision) are kept, built when first read.  A call grows every class chain
    l <= min(m, n) to flat index n, element (n - l) // m, so the point's term
    rows (``_terms``) can read K_1..K_n after it; a sweep over N at one point,
    and ``r_fact`` at each N (m = 1), read prefixes of the chains.  One
    eviction drops the chains and the term rows together.
    """
    w = as_mpc(w)
    chains, _ = _KERNEL_CHAINS(w, m, mp.mp.prec)
    for l in range(1, min(m, n) + 1):  # classes past n hold no index <= n
        if l not in chains:
            chains[l] = _Chain(w, as_mpf(Fraction(l, m)))
        chains[l].upto((n - l) // m)
    j, l = divmod(n - 1, m)
    return chains[l + 1].values[j]


class _TermRow(_GrowingRow):
    """(K_n c_n, |K_n c_n|, the largest condition number of c_1..c_n) for
    n >= 1 (v_0 holds the empty maximum 0): the kernel terms of one list of
    (c_n, condition number) pairs, from index 1, on the class chains of one
    point at m.  Each product is formed once, at the ambient precision, so a
    sweep over N at the point reads prefixes of the row.  A step reads chain
    elements only, so before ``upto(n)`` or ``read(n)`` the chains must reach
    flat index n: ``_kernel(w, m, n)`` (or any later index) grows them there.
    A step runs on raw mpmath tuples with the bits of ``K * c``, ``abs`` and
    ``max``: ``mpc_mul`` of the chain element and c_n, ``mpc_abs`` of the term
    and ``mpf_lt`` for the maximum, which keeps the first of equal values.  So
    each c_n is an mpc and each condition number an mpf; ``_terms`` converts a
    hand-built expansion's numbers once.

    Beside the row it keeps a read mark: the index of the last ``read`` and the
    exact state of the prefix 1..mark, the unrounded sums of Re, Im and |.| of
    the terms (``mpf_sum`` at precision 0, which drops a part only past a
    10^6-bit exponent gap) and the index of the first smallest nonzero
    modulus among 1..mark-1 that is no dip (0 for none): term i + 1 settles
    whether term i dips.  A read at n >= mark folds in terms mark+1..n
    only, so an ascending sweep costs O(N) in all; a read at n < mark, as a
    descending sweep makes, folds again from 0."""

    def __init__(self, coefficients: list, chains: dict, m: int):
        self.coefficients, self.chains, self.m = coefficients, chains, m
        self.mark, self.sums, self.i_min = 0, (fzero, fzero, fzero), 0
        super().__init__((None, None, mp.mpf(0)))

    def step(self, n: int) -> tuple[mp.mpc, mp.mpf, mp.mpf]:
        c, cond = self.coefficients[n]
        j, l = divmod(n - 1, self.m)  # n = (l + 1) + jm
        prec, rnd = mp.mp._prec_rounding
        term = mpc_mul(self.chains[l + 1].values[j]._mpc_, c._mpc_, prec, rnd)
        top = self.values[-1][2]  # max keeps the first of equal values
        return (mp.make_mpc(term), mp.make_mpf(mpc_abs(term, prec, rnd)),
                cond if mpf_lt(top._mpf_, cond._mpf_) else top)

    def read(self, n: int) -> tuple[mp.mpc, mp.mpf, bool]:
        """(sum K_i c_i, sum |K_i c_i|, diverging) over i <= n, each sum its exact
        prefix rounded once at the ambient precision.  That is the bits of
        ``mp.fsum`` over the prefix except past a 2 prec exponent gap between a
        part and its running sum, where ``mp.fsum`` drops the part and the row,
        by design, keeps it.  ``diverging``: growth past 4x the smallest nonzero
        term, three or more terms before the last, signals the series left its
        convergence regime (or never had one); a dip below a quarter of both
        neighbours, one interleaved coefficient sequence crossing zero, is never
        the smallest (the last term has one neighbour and is no dip)."""
        t = self.upto(n)
        with PRECISION_LOCK:
            if n < self.mark:
                self.mark, self.sums, self.i_min = 0, (fzero, fzero, fzero), 0
            (re, im, gross), i_min, new = self.sums, self.i_min, t[self.mark + 1:n + 1]
            re = mpf_sum([re, *(x[0]._mpc_[0] for x in new)], 0)
            im = mpf_sum([im, *(x[0]._mpc_[1] for x in new)], 0)
            gross = mpf_sum([gross, *(x[1]._mpf_ for x in new)], 0)
            for i in range(max(self.mark, 1), n):  # the dip test only for a new smallest
                mag = t[i][1]._mpf_
                if mag[1] and (not i_min or mpf_lt(mag, t[i_min][1]._mpf_)) and not (
                        i > 1 and mpf_lt(mpf_shift(mag, 2), t[i - 1][1]._mpf_)
                        and mpf_lt(mpf_shift(mag, 2), t[i + 1][1]._mpf_)):
                    i_min = i
            self.mark, self.sums, self.i_min = n, (re, im, gross), i_min
        prec, rnd = mp.mp._prec_rounding
        return (mp.make_mpc((mpf_pos(re, prec, rnd), mpf_pos(im, prec, rnd))),
                mp.make_mpf(mpf_pos(gross, prec, rnd)),
                n >= 4 and 0 < i_min < n - 2
                and mpf_lt(mpf_shift(t[i_min][1]._mpf_, 2), t[n][1]._mpf_))


def _terms(parts: Sequence[tuple[object, FactorialExpansion]], w: mp.mpc, m: int) -> list:
    """The term row of each part at w = lambda z, m and the ambient precision: the
    row of the coefficient row its expansion was read from is kept beside the
    point's chains, with its read mark; a hand-built expansion's is formed afresh,
    over its b and condition numbers as mpmath's operators read them."""
    chains, rows = _KERNEL_CHAINS(w, m, mp.mp.prec)
    for _, e in parts:
        if e._row is not None and e._row not in rows:
            rows[e._row] = _TermRow(e._row.values, chains, m)
    return [_TermRow([None, *zip(map(_operand, e.b), map(_condition, e.condition))], chains, m)
            if e._row is None else rows[e._row] for _, e in parts]


def _number(x, what: str, kind=object):
    """A hand-built number as mpmath's operators read it: ``mp.convert`` takes an
    int, a float or a complex exactly.  Text, which ``mp.convert`` would parse
    and the operators refuse, None, and anything else that reads as no ``kind``
    is a DomainError naming ``what``."""
    try:
        if not isinstance(x, str) and isinstance(v := mp.convert(x), kind):
            return v
    except (TypeError, ValueError):
        pass
    raise DomainError(f"a factorial expansion needs {what}, got {x!r}")


def _operand(x) -> mp.mpc:
    """A hand-built coefficient as an mpc, read as ``_number`` reads it: an mpf
    times an mpc is the same product as (mpf, 0) times it."""
    x = _number(x, "numbers in b")
    return mp.make_mpc((x._mpf_, fzero)) if hasattr(x, "_mpf_") else x


# a hand-built condition number as an mpf, read as ``_number`` reads it
_condition = partial(_number, what="real condition numbers", kind=mp.mpf)


def _kernel_sum(method: str, N: int, parts: Sequence[tuple[object, FactorialExpansion]],
                a0, n: int, m: int, zc: mp.mpc, prec: PrecisionConfig | None,
                envelope: GrowthEnvelope | None = None) -> SummationResult:
    """a0 + sum weight (e.a0 + lambda sum_{i<=n} K_i c_i) over the parts
    (weight, e), all on one chain K_1..K_{n+1} at w = lambda z, at the ambient
    precision.  An envelope is checked against lambda and gives the rigorous
    bound ``r_fact`` at n - 1 times sum |weight|; ``r_fact`` validates it
    before it reads the chain, which the kernels then extend.  Each part's
    sum of K_i c_i, sum of |K_i c_i| and ``diverging`` come from its term row
    (``_TermRow.read``), kept with the point's chains, which forms each product
    once and rounds a kept exact prefix, so a sweep up over N is one pass.
    A part's heuristic error is |c_{n+1}| |K_{n+1} (w + (n+1)/m - 1)| / Re z
    (docs/first-omitted-estimate.md), its condition number the larger of
    c_{n+1}'s, the row's largest over c_1..c_n and
    (|e.a0| + lambda sum |K_i c_i|) / |part|; c_{n+1} and its condition number
    are read off the term row, as mpmath numbers.  The result sums |weight| x
    heuristic, takes the worst condition number and any part's ``diverging``."""
    lam = parts[0][1].lam
    check_lambda_permitted(lam, envelope)
    rigorous = None if envelope is None else (  # before the chain: Re z <= B raises
        r_fact(lam, envelope.A, envelope.B, n - 1, zc, prec) * mp.fsum(abs(p[0]) for p in parts))
    w = lam * zc
    tail = abs(_kernel(w, m, n + 1) * (w + mp.mpf(n + 1) / m - 1))
    value, heuristic, cond_max, diverging = mp.mpc(a0), mp.mpf(0), mp.mpf(0), False
    for (weight, e), row in zip(parts, _terms(parts, w, m)):
        total, mags, flag = row.read(n)
        estimate = e.a0 + e.lam * total
        gross = abs(e.a0) + e.lam * mags
        cond = gross / abs(estimate) if estimate != 0 else mp.inf if gross != 0 else mp.mpf(1)
        value += weight * estimate
        c_next, cond_next = row.coefficients[n + 1]  # e.b[n], e.condition[n]
        heuristic += abs(weight) * (abs(c_next) * tail / mp.re(zc))
        cond_max = max(cond_max, row.values[n][2], cond_next, cond)
        diverging = diverging or flag
    return SummationResult(estimate=ensure_finite(value), N=N, method=method,
                           rigorous_bound=rigorous, heuristic_error=heuristic,
                           condition_number=cond_max, diverging=diverging)


# ---------------------------------------------------------------------------
# explicit bounds, at z a cover point or a complex number with Re z > B
# ---------------------------------------------------------------------------

def r_as(r, A, B, n: int, z: PointLike, prec: PrecisionConfig | None = None) -> mp.mpf:
    """Least-term remainder bound on a strip of half-width r:

        A e^(B r) (n!/r^n) / ( |z|^n (Re z - B) ).
    """
    n = as_index(n, "r_as", "n")
    with working_precision(prec):
        rv, Av, Bv = _positive("r_as", r=r, A=A, B=B)
        zc = _halfplane(z, Bv, prec)
        return ensure_finite(
            Av * mp.exp(Bv * rv) * mp.factorial(n) / mp.power(rv, n)
            / (mp.power(abs(zc), n) * (mp.re(zc) - Bv)))


def r_fact(lam, A, B, N: int, z: PointLike, prec: PrecisionConfig | None = None) -> mp.mpf:
    """Factorial-series remainder bound

        (A/(lam B)^(lam B)) ((N+lam B+1)^(N+lam B+1) / (N+1)^N)
            |Gamma(lam z) Gamma(N+1) / (Gamma(lam z+N+1) (Re z - B))|.

    Reduces to the unscaled bound at lam = 1.  The kernel is element N of the
    chain at lam z that the sums there keep, grown to N if shorter: at a large
    N with no chain yet, ``r_fact_asymptotic`` is the cheap form.
    """
    N = as_index(N, "r_fact")
    with working_precision(prec):
        lv, Av, Bv = _positive("r_fact", lam=lam, A=A, B=B)
        zc = _halfplane(z, Bv, prec)
        lB = lv * Bv
        shape = mp.power(N + lB + 1, N + lB + 1) / mp.power(N + 1, N)
        kernel = abs(_kernel(lv * zc, 1, N + 1))
        return ensure_finite(Av / mp.power(lB, lB) * shape * kernel / (mp.re(zc) - Bv))


def r_fact_asymptotic(lam, A, B, N: int, z: PointLike,
                      prec: PrecisionConfig | None = None) -> mp.mpf:
    """Large-N equivalent of ``r_fact``:

        A e^(lam B (1 - ln(lam B))) / N^(lam (Re z - B) - 1)
            * |Gamma(lam z)| / (Re z - B).
    """
    N = as_index(N, "r_fact_asymptotic", low=1)
    with working_precision(prec):
        lv, Av, Bv = _positive("r_fact_asymptotic", lam=lam, A=A, B=B)
        zc = _halfplane(z, Bv, prec)
        lB = lv * Bv
        expo = lv * (mp.re(zc) - Bv) - 1
        return ensure_finite(
            Av * mp.exp(lB * (1 - mp.log(lB))) / mp.power(N, expo)
            * abs(mp.gamma(lv * zc)) / (mp.re(zc) - Bv))


def b_bound(lam, A, B, n: int, prec: PrecisionConfig | None = None) -> mp.mpf:
    """Coefficient bound |b_n^(lambda)| <= A (n+lam B)^(n+lam B) / ((lam B)^(lam B) n^n)."""
    n = as_index(n, "b_bound", "n", 1)
    with working_precision(prec):
        lv, Av, Bv = _positive("b_bound", lam=lam, A=A, B=B)
        lB = lv * Bv
        return ensure_finite(
            Av * mp.power(n + lB, n + lB) / (mp.power(lB, lB) * mp.power(n, n)))


def least_term_index(r, z) -> int:
    """Optimal strip truncation index floor(r |z|)."""
    rv, = _positive("least_term_index", r=r)
    zm = z.modulus if hasattr(z, "modulus") else abs(as_mpc(z))
    return int(mp.floor(ensure_finite(rv * zm)))


@dataclass(frozen=True)
class BoundRow:
    n: int
    log_r_as_ln2: mp.mpf
    log_r_as_halfpi: mp.mpf
    log_r_fact: mp.mpf


def bound_comparison_table(A, B, z: PointLike, n_max: int,
                           prec: PrecisionConfig | None = None) -> list[BoundRow]:
    """Rows (n, log10 R_as(ln 2), log10 R_as(pi/2), log10 R_fact(1, n)).

    The two strip half-widths are the inner/outer strips of the
    log-of-disk region, so the three curves compare least-term truncation
    against the factorial-series bound on the same envelope.
    """
    with working_precision(prec):
        A, B = _positive("bound_comparison_table", A=A, B=B)
        zc = _halfplane(z, B, prec)
        return [BoundRow(n=n, log_r_as_ln2=mp.log10(r_as(mp.log(2), A, B, n, zc, prec)),
                         log_r_as_halfpi=mp.log10(r_as(mp.pi / 2, A, B, n, zc, prec)),
                         log_r_fact=mp.log10(r_fact(1, A, B, n, zc, prec)))
                for n in range(as_index(n_max, "bound_comparison_table", "n_max") + 1)]
