"""Formal series in z^(-1/m), points of the m-sheeted cover, and coefficient maps.

A :class:`FormalSeries` stores finitely many coefficients a_0..a_nmax of
f(z) = sum_n a_n z^(-n/m).  Operations declare the highest index they need
and raise :class:`InsufficientCoefficientsError` rather than zero-pad;
silent truncation would corrupt every error estimate built on top.

A :class:`RamifiedPoint` is (modulus, argument) with the argument kept as a
plain unreduced real; it only acquires the "mod 2*pi*m" meaning through the
power map z^(k/m) = modulus^(k/m) * exp(i k/m * argument).  The sheet is
part of the point, so :func:`power`, :func:`partial_sum` and the ramified
routes that read it take a :class:`RamifiedPoint` and no complex number; a
``PointLike`` is either, for the sums and bounds that read only the projection.

A :class:`GrowthEnvelope` is the growth pair (A, B) of a Borel transform on
the lambda-region, with the largest permitted lambda, as the factorial-type
sums read it; the least-term strip bounds take (A, B) as plain arguments.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Union

import mpmath as mp

from .errors import DomainError, InsufficientCoefficientsError
from .numerics import (PRECISION_LOCK, PrecisionConfig, _finite, _positive, as_index, as_mpc,
                       as_mpf, ensure_finite, working_precision)


@dataclass(frozen=True)
class RamifiedPoint:
    """Point |z| e^(i arg z) of the m-sheeted cover of C*; argument unreduced.
    An ``mp.mpf`` is kept as given, other numbers convert at the ambient precision."""

    modulus: mp.mpf
    argument: mp.mpf

    def __post_init__(self):
        for name in ("modulus", "argument"):
            if not isinstance(getattr(self, name), mp.mpf):
                object.__setattr__(self, name, as_mpf(getattr(self, name)))
        if not (mp.isfinite(self.modulus) and mp.isfinite(self.argument)):
            raise DomainError("RamifiedPoint modulus and argument must be finite")
        if not self.modulus > 0:
            raise DomainError("RamifiedPoint modulus must be positive")

    def projection(self, prec: PrecisionConfig | None = None) -> mp.mpc:
        """The underlying point of C* (argument taken mod 2*pi)."""
        with working_precision(prec):
            return self.modulus * mp.exp(1j * self.argument)

    def rotated(self, theta) -> "RamifiedPoint":
        return RamifiedPoint(self.modulus, self.argument + as_mpf(theta))

    @classmethod
    def require(cls, z, fn: str) -> None:
        """Refuse anything but a cover point where ``fn`` reads the sheet of z."""
        if not isinstance(z, cls):
            raise DomainError(f"{fn} reads the sheet of a RamifiedPoint z, got {type(z).__name__}")


@dataclass(frozen=True)
class GrowthEnvelope:
    """Growth data of a Borel transform: |f~(zeta)| <= A e^(B |zeta|).

    ``domain`` records where the bound holds: the homothety by ``lam`` of
    the log-of-disk region ("region") or its ramified lift ("ramified").
    ``lam`` is the validity factor a summation lambda is checked against.
    """

    A: float
    B: float
    lam: float
    domain: str = "region"

    def __post_init__(self):
        _positive("GrowthEnvelope", A=self.A, B=self.B)
        _positive("GrowthEnvelope", infinite=True, lam=self.lam)
        if self.domain not in ("region", "ramified"):
            raise DomainError(f"unknown envelope domain {self.domain!r}")


PointLike = Union[RamifiedPoint, mp.mpc, mp.mpf, int, float, complex]


def power(z: RamifiedPoint, k: int, m: int,
          prec: PrecisionConfig | None = None) -> mp.mpc:
    """z^(k/m) on the cover: modulus^(k/m) * exp(i (k/m) argument)."""
    RamifiedPoint.require(z, "power")
    m = as_index(m, "power", "m", 1)
    with working_precision(prec):
        return _power(z, k, m)


def _power(z: RamifiedPoint, k: int, m: int) -> mp.mpc:
    """``power`` at the ambient precision, for a caller that checked z and m."""
    expo = mp.mpf(k) / m
    return ensure_finite(mp.power(z.modulus, expo) * mp.exp(1j * expo * z.argument))


@dataclass(frozen=True, eq=False, repr=False)
class FormalSeries:
    """Coefficients a_0..a_nmax of sum_n a_n z^(-n/m), ramification order m.

    The coefficients are finite, checked where the series is made, and never
    change.  Data derived from them (the branch split, the coefficient rows
    that :func:`borelsum.classical.factorial_expansion` and the generalized
    sums of :mod:`borelsum.ramified` read) is cached on the object by
    :meth:`_derived` under ``PRECISION_LOCK``, so it lives and dies with it,
    and copies and pickles carry it along.
    """

    m: int
    coefficients: tuple[mp.mpc, ...]  # given as any iterable of numbers
    _cache: dict = field(init=False, default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "m", as_index(self.m, "FormalSeries", "m", 1))
        object.__setattr__(self, "coefficients", tuple(as_mpc(c) for c in self.coefficients))
        if not self.coefficients:
            raise DomainError("a FormalSeries needs at least the constant term")
        for n, c in enumerate(self.coefficients):
            if not mp.isfinite(c):
                raise DomainError(f"a FormalSeries needs finite coefficients, got a_{n} = {c}")

    def _derived(self, key, build: Callable[[], object]):
        """What ``build()`` returned on the first call with ``key``."""
        with PRECISION_LOCK:
            value = self._cache.get(key)
            if value is None:
                value = self._cache[key] = build()
            return value

    def __len__(self) -> int:
        return len(self.coefficients)

    @property
    def n_max(self) -> int:
        return len(self.coefficients) - 1

    def require_depth(self, n: int) -> None:
        if n > self.n_max:
            raise InsufficientCoefficientsError(
                f"operation needs coefficients up to a_{n}, series stores a_0..a_{self.n_max}")

    def __repr__(self):
        return f"FormalSeries(m={self.m}, n_max={self.n_max})"


def rotate(f: FormalSeries, theta, prec: PrecisionConfig | None = None) -> FormalSeries:
    """Coefficients of f(z e^(-i theta)): a_n -> a_n e^(i n theta / m).

    Direct substitution (z e^(-i theta))^(-n/m) = z^(-n/m) e^(+i n theta/m)
    fixes the sign of the phase factor.
    """
    with working_precision(prec):
        th = _finite(theta, "theta")
        return FormalSeries(f.m, (a * _rotation(th, n, f.m)
                                  for n, a in enumerate(f.coefficients)))


def scale(f: FormalSeries, lam, prec: PrecisionConfig | None = None) -> FormalSeries:
    """Homothety coefficients: a_n -> lambda^(n/m - 1) a_n, lambda finite and > 0."""
    with working_precision(prec):
        lv = _finite(lam, "lambda", positive=True)
        return FormalSeries(f.m, (_homothety(lv, n, f.m) * a
                                  for n, a in enumerate(f.coefficients)))


def _rotation(theta: mp.mpf, n: int, m: int) -> mp.mpc:
    """e^(i n theta / m), the factor ``rotate`` puts on a_n, at the ambient precision."""
    return mp.exp(1j * n * theta / m)


def _homothety(lam: mp.mpf, n: int, m: int) -> mp.mpf:
    """lambda^(n/m - 1), the factor ``scale`` puts on a_n, at the ambient precision."""
    return mp.power(lam, mp.mpf(n) / m - 1)


def branch_split(f: FormalSeries) -> tuple[mp.mpc, list[FormalSeries]]:
    """Split into the constant a_0 plus m ordinary (m = 1) branch series.

    Branch l (1 <= l <= m) holds a_{l,j} = a_{l + m(j-1)} at index j, so
    f(z) = a_0 + sum_l z^((m-l)/m) f_l(z projected).  Branches keep every
    coefficient the parent stores; depths may differ by one between branches.
    Branch coefficients are rounded to the ambient precision.  The branches
    are cached on ``f`` per precision: every call returns the same objects,
    and with them whatever they have cached themselves.
    """
    def split():
        return tuple(FormalSeries(1, (mp.mpc(0),) + f.coefficients[l::f.m])
                     for l in range(1, f.m + 1))
    return f.coefficients[0], list(f._derived(("branches", mp.mp.prec), split))


def partial_sum(f: FormalSeries, z: RamifiedPoint, N: int,
                prec: PrecisionConfig | None = None) -> mp.mpc:
    """sum_{k=0}^{N} a_k z^(-k/m); requires N <= n_max."""
    RamifiedPoint.require(z, "partial_sum")
    N = as_index(N, "partial_sum")
    f.require_depth(N)
    with working_precision(prec):
        return _partial_sum(f, z, N)


def _partial_sum(f: FormalSeries, z: RamifiedPoint, N: int) -> mp.mpc:
    """``partial_sum`` at the ambient precision, for a caller that checked z and N."""
    return ensure_finite(mp.fsum((f.coefficients[k] * _power(z, -k, f.m) for k in range(N + 1)),
                                 absolute=False))


# ---------------------------------------------------------------------------
# series file format: {"m": int, "coefficients": [["re", "im"], ...]}
# with decimal strings so coefficients survive beyond double precision.
# ---------------------------------------------------------------------------

# a series file holds at most a_0..a_MAX_DEPTH, as a CLI --builtin series does
# (README § Size limits)
MAX_DEPTH = 1000


def load_series(path: str, prec: PrecisionConfig | None = None) -> FormalSeries:
    """Read a series file; every coefficient is rounded once, at ``prec``.  A file
    of more than ``MAX_DEPTH + 1`` coefficients is refused before any is rounded."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except UnicodeDecodeError as exc:
        raise DomainError(f"series file is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DomainError(f"malformed series file: {exc}") from exc
    if not isinstance(payload, dict) or "m" not in payload or "coefficients" not in payload:
        raise DomainError('series file must be an object {"m": ..., "coefficients": ...}')
    m = payload["m"]
    rows = payload["coefficients"]
    if type(m) is not int or not isinstance(rows, list):
        raise DomainError("series file has wrong field types")
    if len(rows) > MAX_DEPTH + 1:
        raise DomainError(f"series file has {len(rows)} coefficients, over the limit "
                          f"{MAX_DEPTH + 1}")
    if not all(isinstance(row, (list, tuple)) and len(row) == 2 for row in rows):
        raise DomainError("each coefficient must be a [re, im] pair")
    with working_precision(prec):
        return FormalSeries(m, [mp.mpc(as_mpf(str(re)), as_mpf(str(im))) for re, im in rows])


def dump_series(f: FormalSeries, path: str, prec: PrecisionConfig | None = None) -> None:
    """Write a series file with enough digits to read ``prec`` back exactly."""
    with working_precision(prec):
        digits = mp.mp.dps + 5
    rows = [[mp.nstr(mp.re(c), digits), mp.nstr(mp.im(c), digits)] for c in f.coefficients]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"m": f.m, "coefficients": rows}, indent=1))
