"""Formal series in z^(-1/m), points of the m-sheeted cover, and coefficient maps.

A :class:`FormalSeries` stores finitely many coefficients a_0..a_nmax of
f(z) = sum_n a_n z^(-n/m).  Operations declare the highest index they need
and raise :class:`InsufficientCoefficientsError` rather than zero-pad;
silent truncation would corrupt every error estimate built on top.

A :class:`RamifiedPoint` is (modulus, argument) with the argument kept as a
plain unreduced real; it only acquires the "mod 2*pi*m" meaning through the
power map z^(k/m) = modulus^(k/m) * exp(i k/m * argument).
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from typing import IO, Callable, Iterable, Union

import mpmath as mp

from .errors import DomainError, InsufficientCoefficientsError
from .numerics import (PrecisionConfig, as_mpc, as_mpf, ensure_finite,
                       working_precision)


@dataclass(frozen=True)
class RamifiedPoint:
    """Point |z| e^(i arg z) of the m-sheeted cover of C*; argument unreduced."""

    modulus: mp.mpf
    argument: mp.mpf

    def __post_init__(self):
        object.__setattr__(self, "modulus", as_mpf(self.modulus))
        object.__setattr__(self, "argument", as_mpf(self.argument))
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


@dataclass(frozen=True)
class GrowthEnvelope:
    """Validity data for a Borel transform: |f~(zeta)| <= A e^(B |zeta|).

    ``domain`` records where the bound holds: a strip of half-width ``r``
    around the summation ray ("strip"), the homothety by ``lam`` of the
    log-of-disk region ("region"), or its ramified lift ("ramified").
    Exactly the parameter matching the domain kind must be set.
    """

    A: float
    B: float
    r: float | None = None
    lam: float | None = None
    domain: str = "region"

    def __post_init__(self):
        if not (self.A > 0 and self.B > 0):
            raise DomainError("envelope requires A > 0 and B > 0")
        if self.domain == "strip":
            if self.r is None or not self.r > 0:
                raise DomainError("a strip envelope needs r > 0")
        elif self.domain in ("region", "ramified"):
            if self.lam is None or not self.lam > 0:
                raise DomainError(f"a {self.domain} envelope needs lam > 0")
        else:
            raise DomainError(f"unknown envelope domain {self.domain!r}")


PointLike = Union[RamifiedPoint, mp.mpc, mp.mpf, int, float, complex]


def as_point(z: PointLike, prec: PrecisionConfig | None = None) -> RamifiedPoint:
    """Coerce a complex number to a cover point on the principal sheet."""
    if isinstance(z, RamifiedPoint):
        return z
    with working_precision(prec):
        zc = as_mpc(z)
        if zc == 0:
            raise DomainError("0 is not a point of the punctured cover")
        return RamifiedPoint(abs(zc), mp.arg(zc))


def power(z: RamifiedPoint, k: int, m: int,
          prec: PrecisionConfig | None = None) -> mp.mpc:
    """z^(k/m) on the cover: modulus^(k/m) * exp(i (k/m) argument)."""
    if m < 1:
        raise DomainError("m must be a positive integer")
    with working_precision(prec):
        expo = mp.mpf(k) / m
        return ensure_finite(mp.power(z.modulus, expo) * mp.exp(1j * expo * z.argument))


class FormalSeries:
    """Coefficients a_0..a_nmax of sum_n a_n z^(-n/m), ramification order m.

    The coefficients never change.  Data derived from them (the branch split,
    the factorial rows of :func:`borelsum.classical.factorial_expansion`) is
    cached on the object by :meth:`_derived`, so it lives and dies with it.
    """

    __slots__ = ("m", "coefficients", "_cache", "_lock")

    def __init__(self, m: int, coefficients: Iterable):
        if m < 1:
            raise DomainError("ramification order m must be >= 1")
        coeffs = tuple(as_mpc(c) for c in coefficients)
        if not coeffs:
            raise DomainError("a FormalSeries needs at least the constant term")
        self.__setstate__((int(m), coeffs))

    def __setattr__(self, *a):  # immutable value type
        raise AttributeError("FormalSeries is immutable")

    def __getstate__(self):  # copies and pickles leave the cache behind
        return self.m, self.coefficients

    def __setstate__(self, state):
        m, coeffs = state
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "_cache", {})
        object.__setattr__(self, "_lock", threading.Lock())

    def _derived(self, key, build: Callable[[], object]):
        """What ``build()`` returned on the first call with ``key``."""
        with self._lock:
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
        th = as_mpf(theta)
        phase = [mp.exp(1j * n * th / f.m) for n in range(len(f))]
        return FormalSeries(f.m, (a * p for a, p in zip(f.coefficients, phase)))


def scale(f: FormalSeries, lam, prec: PrecisionConfig | None = None) -> FormalSeries:
    """Homothety coefficients: a_n -> lambda^(n/m - 1) a_n, lambda > 0."""
    with working_precision(prec):
        lv = as_mpf(lam)
        if not lv > 0:
            raise DomainError("lambda must be positive")
        return FormalSeries(
            f.m,
            (mp.power(lv, mp.mpf(n) / f.m - 1) * a
             for n, a in enumerate(f.coefficients)))


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


def partial_sum(f: FormalSeries, z: PointLike, N: int,
                prec: PrecisionConfig | None = None) -> mp.mpc:
    """sum_{k=0}^{N} a_k z^(-k/m); requires N <= n_max."""
    if N < 0:
        raise DomainError("N must be nonnegative")
    f.require_depth(N)
    zp = as_point(z, prec)
    with working_precision(prec):
        return ensure_finite(mp.fsum(
            (f.coefficients[k] * power(zp, -k, f.m, prec) for k in range(N + 1)),
            absolute=False))


# ---------------------------------------------------------------------------
# series file format: {"m": int, "coefficients": [["re", "im"], ...]}
# with decimal strings so coefficients survive beyond double precision.
# ---------------------------------------------------------------------------

def series_to_json(f: FormalSeries, dps: int | None = None) -> str:
    digits = dps or int(mp.mp.dps) + 5
    rows = [[mp.nstr(mp.re(c), digits), mp.nstr(mp.im(c), digits)]
            for c in f.coefficients]
    return json.dumps({"m": f.m, "coefficients": rows}, indent=1)


def series_from_json(text: str, prec: PrecisionConfig | None = None) -> FormalSeries:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"malformed series file: {exc}") from exc
    if not isinstance(payload, dict) or "m" not in payload or "coefficients" not in payload:
        raise DomainError('series file must be an object {"m": ..., "coefficients": ...}')
    m = payload["m"]
    rows = payload["coefficients"]
    if type(m) is not int or not isinstance(rows, list):
        raise DomainError("series file has wrong field types")
    with working_precision(prec):
        coeffs = []
        for row in rows:
            if not (isinstance(row, (list, tuple)) and len(row) == 2):
                raise DomainError("each coefficient must be a [re, im] pair")
            try:
                coeffs.append(mp.mpc(as_mpf(str(row[0])), as_mpf(str(row[1]))))
            except ValueError as exc:
                raise DomainError(f"coefficient {row!r} is not a pair of numbers") from exc
    return FormalSeries(m, coeffs)


def load_series(fp: Union[str, IO[str]], prec: PrecisionConfig | None = None) -> FormalSeries:
    try:
        if isinstance(fp, str):
            with open(fp, "r", encoding="utf-8") as fh:
                text = fh.read()
        else:
            text = fp.read()
    except UnicodeDecodeError as exc:
        raise DomainError(f"series file is not UTF-8 text: {exc}") from exc
    return series_from_json(text, prec)


def dump_series(f: FormalSeries, fp: Union[str, IO[str]], dps: int | None = None) -> None:
    text = series_to_json(f, dps)
    if isinstance(fp, str):
        with open(fp, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        fp.write(text)
