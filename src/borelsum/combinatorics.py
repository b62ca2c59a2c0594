"""Exact combinatorial objects: Stirling numbers, Bell polynomials, d-coefficients.

All quantities here feed cancellation-heavy sums downstream, so they are
computed in exact integer/rational arithmetic and converted to floating
values only at the last step.

The d-coefficients are the expansion coefficients of a fractional power
against the beta-kernel basis, defined by

    1/z^r = Gamma(z)/Gamma(r+z) + sum_{j>=1} d_{r,j} Gamma(z)/Gamma(r+j+z),

    d_{r,j} = ( sum_{1<=p<=j} B_{j,p}(1!/2, 2!/3, ..., l!/(l+1), ...)
                / Gamma(r-p) ) * Gamma(r+j)/j!,

where B_{j,p} are partial exponential Bell polynomials.  For rational r the
gamma factors collapse to rational rising/falling products, so d_{r,j} is an
exact rational; 1/Gamma(r-p) at a pole contributes an exact zero factor.

The library evaluates d only through the row recurrence of
:func:`d_coefficient_row`, cached per r.  It runs in integer arithmetic:
the coefficients of a row are integer numerators over one shared
denominator, so an entry takes a few gcds in place of a Fraction sum's
gcds for every term.  The results are the same exact Fractions.  The Bell
form above is the definition the test suite checks those rows against;
:func:`bell_partial` stays here as that oracle's building block.

Every cached recurrence (Stirling rows, d-rows, the factorial rows of
``classical``, the psi coefficients of ``oracle``) is a ``_GrowingRow``,
grown in place under its own lock.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import comb, factorial, gcd, lcm
from operator import mul
from typing import Sequence

import mpmath as mp

from .errors import DomainError
from .numerics import PrecisionConfig, as_mpf


def stirling_first(n: int, k: int) -> int:
    """Signed Stirling number of the first kind s(n, k), exact.

    Convention: prod_{i=0}^{n-1} (x - i) = sum_k s(n, k) x^k.
    """
    if n < 0:
        raise DomainError("n must be nonnegative")
    if k < 0 or k > n:
        raise DomainError(f"stirling_first requires 0 <= k <= n, got ({n}, {k})")
    return _STIRLING.upto(n)[n][k]


class BellArguments:
    """Argument sequence for the partial Bell polynomials.

    The fixed sequence of the d-coefficient formula is x_l = l!/(l+1)
    (exact rationals); custom sequences are accepted for testing.
    """

    def __init__(self, values: Sequence[Fraction] | None = None):
        if values is None:
            self._values: list[Fraction] = []
            self._fixed = True
        else:
            self._values = [Fraction(v) for v in values]
            self._fixed = False
        # memo table for B_{j,p} on this argument sequence
        self._bell: dict[tuple[int, int], Fraction] = {(0, 0): Fraction(1)}
        self._lock = threading.Lock()

    def x(self, l: int) -> Fraction:
        if l < 1:
            raise DomainError("Bell arguments are indexed from 1")
        if self._fixed:
            while len(self._values) < l:
                i = len(self._values) + 1
                self._values.append(Fraction(factorial(i), i + 1))
        elif l > len(self._values):
            raise DomainError(f"argument sequence has only {len(self._values)} entries")
        return self._values[l - 1]

    def bell(self, j: int, p: int) -> Fraction:
        if p < 1 or p > j:
            raise DomainError(f"bell_partial requires 1 <= p <= j, got ({j}, {p})")
        with self._lock:
            return self._bell_locked(j, p)

    def _bell_locked(self, j: int, p: int) -> Fraction:
        key = (j, p)
        got = self._bell.get(key)
        if got is not None:
            return got
        if p == 0:
            val = Fraction(1) if j == 0 else Fraction(0)
        else:
            # B_{j,p} = sum_i C(j-1, i-1) x_i B_{j-i, p-1}
            val = Fraction(0)
            for i in range(1, j - p + 2):
                inner = self._bell_locked(j - i, p - 1)
                if inner:
                    val += comb(j - 1, i - 1) * self.x(i) * inner
        self._bell[key] = val
        return val


_FIXED_ARGS = BellArguments()


def bell_partial(j: int, p: int, args: BellArguments | None = None) -> Fraction:
    """Partial exponential Bell polynomial B_{j,p} at the fixed sequence
    x_l = l!/(l+1) (or at ``args``), exact rational."""
    return (args or _FIXED_ARGS).bell(j, p)


class _GrowingRow:
    """v_0, v_1, ... of one recurrence, extended in place when a longer
    prefix is asked for.

    Subclasses keep the recurrence's running state and define ``step(n)``,
    which returns v_n once v_0..v_{n-1} are in ``values``.  Growth runs
    under the row's own lock and resumes where the last request stopped; a
    read of a row already long enough takes no lock, as ``values`` only
    ever gains entries at its end.
    """

    def __init__(self, first):
        self.values = [first]
        self._lock = threading.Lock()

    def upto(self, n: int) -> list:
        """The live list of values, holding at least v_0..v_n; read it, never
        change it."""
        values = self.values
        if len(values) <= n:
            with self._lock:
                for i in range(len(values), n + 1):
                    values.append(self.step(i))
        return values


class _SharedDenominatorRow:
    """Exact rationals v_0, v_1, ... held as integer numerators over one
    shared denominator, so a recurrence over them runs in integer arithmetic.

    ``num[i] / den`` is v_i, and ``den`` is the lcm of the denominators
    appended so far.  Appending a value whose denominator does not divide
    ``den`` rescales ``den`` and every stored numerator.
    """

    def __init__(self, first: Fraction):
        self.num = [first.numerator]
        self.den = first.denominator

    def append(self, value: Fraction) -> None:
        scale = value.denominator // gcd(self.den, value.denominator)
        if scale != 1:
            self.den *= scale
            self.num = [x * scale for x in self.num]
        self.num.append(value.numerator * (self.den // value.denominator))


class _StirlingRows(_GrowingRow):
    """Row n is [s(n, 0), ..., s(n, n)], by s(n, k) = s(n-1, k-1) - (n-1) s(n-1, k)."""

    def step(self, n: int) -> list[int]:
        prev = self.values[n - 1]
        return [(prev[k - 1] if k else 0) - (n - 1) * (prev[k] if k < n else 0)
                for k in range(n + 1)]


_STIRLING = _StirlingRows([1])


class _DRow(_GrowingRow):
    """Exact d_{r,0}, d_{r,1}, ... for one r.

    Keeps c_n = [w^n] h(w)^(r-1) as integer numerators over one shared
    denominator, the integer q^n r(r+1)...(r+n-1) (r = p/q) and lcm(1..n+1),
    so growing resumes the power recurrence instead of restarting it.
    """

    def __init__(self, r: Fraction):
        super().__init__(Fraction(1))
        self.r = r
        self.c = _SharedDenominatorRow(Fraction(1))
        self.rising = self.lcm = 1

    def step(self, n: int) -> Fraction:
        c, p, q = self.c, self.r.numerator, self.r.denominator
        # n c_n = sum_{k=1}^{n} (r k - n) h_k c_{n-k},  h_k = 1/(k+1); with
        # L = lcm(2..n+1) every L h_k is an integer, so the sum is one
        # integer S and c_n = S / (n q L den)
        self.lcm = L = lcm(self.lcm, n + 1)
        s = sum(map(mul, [(p * k - n * q) * (L // (k + 1)) for k in range(1, n + 1)],
                    reversed(c.num)))
        cn = Fraction(s, n * q * L * c.den)
        c.append(cn)
        self.rising *= p + (n - 1) * q
        return Fraction(cn.numerator * self.rising, cn.denominator * q ** n)


_D_ROWS: dict[Fraction, _DRow] = {}
_D_LOCK = threading.Lock()  # guards _D_ROWS; each row grows under its own lock


def d_coefficient_row(r: Fraction | int, j_max: int) -> list[Fraction]:
    """[d_{r,0}, ..., d_{r,j_max}], exact.

    Evaluates the Bell-row combination of the definition through its
    exponential generating function: with h(w) = -ln(1-w)/w = sum_k w^k/(k+1),

        sum_p B_{j,p}(1!/2, ...) Gamma(r)/Gamma(r-p) = j! [w^j] h(w)^(r-1),

    so d_{r,j} = [w^j] h(w)^(r-1) * r(r+1)...(r+j-1), and the row comes out
    of the power recurrence for h^(r-1) (Knuth, TAOCP vol. 2, 4.7) in
    O(j_max^2) integer operations and one reduced Fraction per entry.  Rows
    are cached per r and only ever extended, so a deeper request continues
    where the last one stopped.
    """
    r = Fraction(r)
    if r <= 0:
        raise DomainError("d_coefficient_row requires r > 0")
    if j_max < 0:
        raise DomainError("j must be nonnegative")
    with _D_LOCK:
        row = _D_ROWS.get(r)
        if row is None:
            row = _D_ROWS[r] = _DRow(r)
    return row.upto(j_max)[:j_max + 1]


def d_coefficient_exact(r: Fraction | int, j: int) -> Fraction:
    """d_{r,j} as an exact rational (r rational, r > 0), read off the cached row."""
    return d_coefficient_row(r, j)[j]


def d_coefficient(r: Fraction | int, j: int,
                  prec: PrecisionConfig | None = None) -> mp.mpf:
    """d_{r,j} as a floating value at working precision (see the exact form)."""
    return as_mpf(d_coefficient_exact(r, j), prec)
