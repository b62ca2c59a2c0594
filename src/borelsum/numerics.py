"""Configurable-precision complex arithmetic and gamma-function kernels.

A factorial-series kernel Gamma(z) Gamma(s+n) / Gamma(z+s+n) has one
evaluator, a chain over n by the two-term recurrence in n, grown in place
from where it stopped.  The kernel sums and the ``r_fact`` bound read the
chains of their last point, kept by ``classical``; ``gamma_ratio``, a fresh
chain of length one at s + n, has no library caller: it is the public
single-kernel form and the tests' reference for the chains.  No kernel is
ever formed from two plain gamma evaluations: ``Gamma(lambda*z + N + 1)``
overflows double exponent range near ``N = 100`` and loses all accuracy
long before that.  A chain starts from a log-gamma difference (or from
exactly 1/z when s = 1).  Single gammas are called from mpmath directly:
``mp.gamma`` in the coefficient rows of ``classical`` (Gamma(n/m), which
is (n-1)! at m = 1), in ``r_fact_asymptotic`` and in ``binomial_series``.

Values are ``mpmath`` numbers.  A :class:`PrecisionConfig` names the working
mantissa size: ``DEFAULT_BITS`` unless given, never below ``MIN_BITS``, the
53-bit floor; the CLI's --precision-bits and the quadrature's precision read
their default and their floor from these two constants.  A public function
enters ``working_precision`` once, so its results carry that precision
whatever the caller's mpmath state; a private helper, and the conversions
``as_mpf`` and ``as_mpc``, run at their caller's and round once.  A cached row
that keeps its own precision (a coefficient row, a chain) enters it to grow,
never growing at another caller's.  Every index of the public API (N, a
depth, a count, m) is read by ``as_index``, every exact rational (a d-row's r,
a binomial's alpha and c) by ``as_fraction``, and the theta of a rotation, the
lambda of a scale or an expansion and a quadrature's tol by ``_finite``.

mpmath's precision is process-global, so ``working_precision`` holds the
reentrant ``PRECISION_LOCK``: library calls from several threads run one at
a time, each at its own precision.  It is the library's one lock, and the
caches of ``combinatorics`` and ``FormalSeries`` and the chains grow under it.
"""

from __future__ import annotations

import operator
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import mpmath as mp
from mpmath.libmp import from_int, mpc_add_mpf, mpc_div, mpc_mul_mpf, mpc_pos, mpf_add

from .errors import DomainError, PoleError

# 256 bits covers every stored reference table here; the worst case (the branch
# factorial sums at per-branch depth 40) cancels roughly 52 decimal digits
# and still needs ~20 significant digits in the result.  53 bits, a double's
# mantissa, is the floor: of a PrecisionConfig, of --precision-bits and of the
# precision a quadrature runs at.
DEFAULT_BITS, MIN_BITS = 256, 53

Numeric = Union[int, float, str, Fraction, mp.mpf, mp.mpc, complex]


def as_index(n, fn: str, name: str = "N", low: int = 0) -> int:
    """``n`` as an int if ``operator.index`` reads it (no float, str, None, mpf) and n >= low."""
    i = operator.index(n) if hasattr(type(n), "__index__") else low - 1
    if i < low:
        raise DomainError(f"{fn} needs an integer {name} >= {low}")
    return i


def as_fraction(x, what: str) -> Fraction:
    """``Fraction(x)``, exact; what it cannot read (nan, inf, None, 1j, a word) is ``what``."""
    try:
        return Fraction(x)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"{what}, got {x!r}") from exc


@dataclass(frozen=True)
class PrecisionConfig:
    """Working mantissa precision in bits."""

    mantissa_bits: int = DEFAULT_BITS

    def __post_init__(self):
        object.__setattr__(self, "mantissa_bits", as_index(
            self.mantissa_bits, "PrecisionConfig", "mantissa_bits", MIN_BITS))

    @property
    def default_tolerance(self) -> mp.mpf:
        """What quadratures aim for when the caller passes no ``tol``.

        56 bits above the unit roundoff 2^-bits, but at most a quarter of
        the mantissa: at 53 bits a 56-bit margin would leave a tolerance
        above 1.
        """
        bits = self.mantissa_bits
        return mp.mpf(2) ** -(bits - min(56, bits // 4))


DEFAULT_PRECISION = PrecisionConfig()
PRECISION_LOCK = threading.RLock()


@contextmanager
def working_precision(prec: PrecisionConfig | None):
    """Run a block at ``prec`` (or the default), holding ``PRECISION_LOCK``."""
    cfg = prec or DEFAULT_PRECISION
    with PRECISION_LOCK, mp.workprec(cfg.mantissa_bits):
        yield cfg


def as_mpf(x: Numeric) -> mp.mpf:
    """Convert to mpf at the caller's ambient precision, never through a
    double.  A Fraction is its exact numerator over its exact denominator,
    rounded once: the correctly rounded quotient.  A value mpmath cannot read
    (None, a string that is no number) is a DomainError."""
    try:
        return mp.fdiv(x.numerator, x.denominator) if isinstance(x, Fraction) else mp.mpf(x)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"needs a finite number, got {x!r}") from exc


def as_mpc(x: Numeric) -> mp.mpc:
    """Convert to mpc at the ambient precision, as :func:`as_mpf` does."""
    try:
        return mp.mpc(as_mpf(x)) if isinstance(x, Fraction) else mp.mpc(x)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"needs a finite number, got {x!r}") from exc


def _positive(fn: str, infinite: bool = False, **values) -> list[mp.mpf]:
    """The values as mpf at the ambient precision, each > 0 and finite (or +inf
    too when ``infinite``); a value ``as_mpf`` cannot read (None, a string
    that is no number, a complex) is no such number either."""
    error = DomainError(f"{fn} needs {'' if infinite else 'finite '}positive {', '.join(values)}")
    try:
        out = [as_mpf(v) for v in values.values()]
    except DomainError as exc:
        raise error from exc
    if not all(v > 0 and (infinite or mp.isfinite(v)) for v in out):
        raise error
    return out


def _finite(x, what: str, positive: bool = False) -> mp.mpf:
    """``as_mpf(x)``, finite and, when ``positive``, > 0: the one check of a
    lambda, a theta or a tol, which says that ``what`` must be so."""
    v = as_mpf(x)
    if not (mp.isfinite(v) and (v > 0 or not positive)):
        raise DomainError(f"{what} must be finite{' and positive' if positive else ''}")
    return v


def ensure_finite(value):
    """Reject NaN/Inf escaping an operation."""
    if not mp.isfinite(value):
        raise DomainError(f"non-finite value produced: {value}")
    return value


def _is_nonpositive_int(x) -> bool:
    if mp.im(x) != 0:
        return False
    xr = mp.re(x)
    return xr <= 0 and mp.isint(xr)


class _GrowingRow:
    """v_0, v_1, ... of one recurrence, extended in place when a longer
    prefix is asked for.

    Subclasses keep the recurrence's running state and define ``step(n)``,
    which returns v_n once v_0..v_{n-1} are in ``values``.  Growth runs
    under ``PRECISION_LOCK`` and resumes where the last request stopped; a
    read of a row already long enough takes no lock, as ``values`` only
    ever gains entries at its end.
    """

    def __init__(self, first):
        self.values = [first]

    def upto(self, n: int) -> list:
        """The live list of values, holding at least v_0..v_n; read it, never
        change it."""
        values = self.values
        if len(values) <= n:
            with PRECISION_LOCK:
                for i in range(len(values), n + 1):
                    values.append(self.step(i))
        return values


def gamma_ratio(z: Numeric, n: int, s: Numeric = 0,
                prec: PrecisionConfig | None = None) -> mp.mpc:
    """Gamma(z) Gamma(s+n) / Gamma(z+s+n), the one-element chain at s + n.

    No library code calls it: the sums and ``r_fact`` read element n of the
    chain at s, which the tests hold to this bit for bit.  With s = 1 this is
    the factorial-series kernel at index n; with s = Fraction(l, m),
    1 <= l <= m, it is the generalized kernel at flat index l + nm.  s is
    rounded to the working precision, as the chains round it, and s + n is
    formed exactly under the guard bits, so both see the same offset for any s.
    """
    n = as_index(n, "gamma_ratio", "n")
    with working_precision(prec):
        sf = as_mpf(s)
        if sf < 0:
            raise DomainError("gamma_ratio needs s >= 0")
        with mp.extraprec(64):
            offset = sf + n
        return _Chain(as_mpc(z), offset).upto(0)[0]


class _Chain(_GrowingRow):
    """The one kernel evaluator, for converted z and s: K_n, n = 0, 1, ..., from
    a log-gamma difference (exactly 1/z when s = 1) by K_{n+1} = K_n (s+n) /
    (z+s+n).  It keeps its precision and its last element unrounded; a growth
    resumes the recurrence in one block with 64 guard bits, far below the one
    rounding of each element, so a long chain's prefix is the short chain.

    A step runs on raw mpmath tuples, with z + s formed once: K_n is
    ``mpc_div(mpc_mul_mpf(K, s + (n-1)), (z + s) + (n-1))`` at prec + 64, the
    libmp calls and operands of ``K * (s + (n-1)) / (z + s + (n-1))`` through
    mpmath's operators, so each element has those bits (tests/test_numerics.py
    keeps that form as the reference)."""

    def __init__(self, zc: mp.mpc, sf: mp.mpf):
        if not sf > 0:
            raise DomainError("a kernel chain needs s > 0")
        # with s > 0, z + s + n hits a pole for some n >= 0 only if z + s does
        if _is_nonpositive_int(zc) or _is_nonpositive_int(zc + sf):
            raise PoleError(f"kernel chain pole at z = {zc}, s = {sf}")
        self.z, self.s, self.k, self.values = zc, sf, None, []  # K_0 on the first growth
        self.prec, self.rounding = mp.mp._prec_rounding
        self.zs = mpc_add_mpf(zc._mpc_, sf._mpf_, self.prec + 64, self.rounding)

    def upto(self, n: int) -> list:
        if len(self.values) <= n:
            with PRECISION_LOCK, mp.workprec(self.prec + 64):
                super().upto(n)
        return self.values

    def step(self, n: int) -> mp.mpc:
        prec, rnd = self.prec, self.rounding
        if n == 0:
            sf, zc = self.s, self.z
            k = (1 / zc if sf == 1 else
                 mp.exp(mp.loggamma(zc) + mp.loggamma(sf) - mp.loggamma(zc + sf)))._mpc_
        else:
            wp, i = prec + 64, from_int(n - 1)
            k = mpc_div(mpc_mul_mpf(self.k, mpf_add(self.s._mpf_, i, wp, rnd), wp, rnd),
                        mpc_add_mpf(self.zs, i, wp, rnd), wp, rnd)
        self.k = k
        return ensure_finite(mp.make_mpc(mpc_pos(k, prec, rnd)))
