"""Configurable-precision complex arithmetic and gamma-function kernels.

A factorial-series kernel Gamma(z) Gamma(s+n) / Gamma(z+s+n) is either a
single ``gamma_ratio`` (the error bounds) or an element of a
``gamma_ratios`` chain (the partial sums: n = 0..N in one pass, by the
two-term recurrence in n).  Neither is ever formed from two plain gamma
evaluations: ``Gamma(lambda*z + N + 1)`` overflows double exponent range
near ``N = 100`` and loses all accuracy long before that.  A single ratio
is a log-gamma difference; a chain starts from one (or from exactly 1/z
when s = 1).  Single gammas are called from mpmath directly:
``mp.rgamma`` in ``generalized_coefficients``, ``mp.gamma`` in
``r_fact_asymptotic`` and ``example2_series``.

Values are ``mpmath`` numbers.  A :class:`PrecisionConfig` names the working
mantissa size; operations run under ``mpmath.workprec`` so results carry the
requested precision regardless of the caller's global mpmath state.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import mpmath as mp

from .errors import DomainError, PoleError

# 256 bits covers every stored reference table here; the worst case (the branch
# factorial sums at per-branch depth 40) cancels roughly 52 decimal digits
# and still needs ~20 significant digits in the result.
DEFAULT_BITS = 256

Numeric = Union[int, float, str, Fraction, mp.mpf, mp.mpc, complex]


@dataclass(frozen=True)
class PrecisionConfig:
    """Working mantissa precision in bits."""

    mantissa_bits: int = DEFAULT_BITS

    def __post_init__(self):
        if self.mantissa_bits < 53:
            raise ValueError("mantissa_bits must be at least 53")

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


@contextmanager
def working_precision(prec: PrecisionConfig | None):
    """Run a block at the precision named by ``prec`` (or the default)."""
    cfg = prec or DEFAULT_PRECISION
    with mp.workprec(cfg.mantissa_bits):
        yield cfg


def as_mpf(x: Numeric, prec: PrecisionConfig | None = None) -> mp.mpf:
    """Convert to mpf; Fractions and decimal strings convert without an
    intermediate double rounding.

    Without an explicit ``prec`` the conversion inherits the caller's
    ambient precision, so helpers running inside a high-precision context
    never quietly downgrade a value to the library default.
    """
    if prec is None:
        if isinstance(x, Fraction):
            return mp.mpf(x.numerator) / x.denominator
        return mp.mpf(x)
    with working_precision(prec):
        return as_mpf(x)


def as_mpc(x: Numeric, prec: PrecisionConfig | None = None) -> mp.mpc:
    if prec is None:
        if isinstance(x, Fraction):
            return mp.mpc(mp.mpf(x.numerator) / x.denominator)
        return mp.mpc(x)
    with working_precision(prec):
        return as_mpc(x)


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


def gamma_ratio(z: Numeric, n: int, s: Numeric = 0,
                prec: PrecisionConfig | None = None) -> mp.mpc:
    """Gamma(z) Gamma(s+n) / Gamma(z+s+n), via log-gamma differences.

    With s = 1 this is the factorial-series kernel
    Gamma(z) Gamma(n+1) / Gamma(z+n+1); with fractional offsets
    (s = n/m, n = 0) it is the generalized kernel Gamma(z)Gamma(s)/Gamma(z+s).
    Stays finite for arbitrarily large n because only log-gammas are formed;
    the exponential amplifies the logs' roundoff by their magnitude, so the
    combination is evaluated with guard bits and rounded once, keeping the
    result within a few ulp at the requested precision.
    """
    if n < 0:
        raise DomainError("n must be a nonnegative integer")
    with working_precision(prec):
        zc = as_mpc(z)
        sf = as_mpf(s)
        if sf < 0 or (sf == 0 and n < 1):
            raise DomainError("require s > 0, or s = 0 with n >= 1")
        if _is_nonpositive_int(zc) or _is_nonpositive_int(zc + sf + n):
            raise PoleError(f"gamma_ratio pole at z = {zc}, s+n = {sf + n}")
        with mp.extraprec(64):
            val = mp.exp(mp.loggamma(zc) + mp.loggamma(sf + n)
                         - mp.loggamma(zc + sf + n))
        return ensure_finite(+mp.mpc(val))


def gamma_ratios(z: Numeric, s: Numeric, count: int,
                 prec: PrecisionConfig | None = None) -> list[mp.mpc]:
    """[Gamma(z) Gamma(s+n) / Gamma(z+s+n) for n < count], s > 0.

    Element n equals ``gamma_ratio(z, n, s)``: the chain starts from the
    same log-gamma differences (from exactly 1/z when s = 1) and continues
    with K_{n+1} = K_n (s+n) / (z+s+n).  The whole chain runs with the same
    64 guard bits as ``gamma_ratio``, where its n roundings stay far below
    the one rounding of each element to the working precision.
    """
    if count < 0:
        raise DomainError("count must be nonnegative")
    with working_precision(prec):
        zc = as_mpc(z)
        sf = as_mpf(s)
        if not sf > 0:
            raise DomainError("gamma_ratios needs s > 0")
        # with s > 0, z + s + n hits a pole for some n >= 0 only if z + s does
        if _is_nonpositive_int(zc) or _is_nonpositive_int(zc + sf):
            raise PoleError(f"gamma_ratios pole at z = {zc}, s = {sf}")
        if count == 0:
            return []
        with mp.extraprec(64):
            if sf == 1:
                k = 1 / zc
            else:
                k = mp.exp(mp.loggamma(zc) + mp.loggamma(sf) - mp.loggamma(zc + sf))
            chain = [k]
            for n in range(count - 1):
                k = k * (sf + n) / (zc + sf + n)
                chain.append(k)
        return [ensure_finite(+mp.mpc(k)) for k in chain]
