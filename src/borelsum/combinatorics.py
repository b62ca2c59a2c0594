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

The library evaluates d only as one triangle per residue class r0 in (0, 1]
(docs/d-coefficient-triangle.md): the base row r0 runs the power recurrence
of :func:`d_coefficient_row`, and each row r0 + k above it grows from the
one below by d_{R,n} = (R+n-2) d_{R,n-1} + d_{R-1,n}.  Every entry is an
integer over a denominator den_n that the whole class shares, so a step is
one integer multiply-add, and the coefficient rows of ``classical`` read
those integers directly.  :func:`d_coefficient_row` returns the same exact
Fractions.  The Bell form above is the definition the test suite checks
those rows against; :func:`bell_partial` gives its B_{j,p} at
x_l = l!/(l+1), cached.

Every cached recurrence (Stirling rows, the base d-rows, the coefficient and
term rows of ``classical``, the psi coefficients of ``oracle``, the kernel
chains of ``numerics``) is a ``numerics._GrowingRow``, grown in place under
its ``PRECISION_LOCK``; the rows above a base d-row grow under it too.  At every m a coefficient row reads integer r = l/m off
the Stirling rows, d_{k,j} = |s(k+j-1, k-1)|, and only fractional r off d-rows.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import ceil, comb, factorial, gcd, lcm
from operator import mul

import mpmath as mp

from .errors import DomainError
from .numerics import (PRECISION_LOCK, PrecisionConfig, _GrowingRow, as_fraction, as_index,
                       as_mpf, working_precision)


def stirling_first(n: int, k: int) -> int:
    """Signed Stirling number of the first kind s(n, k), exact.

    Convention: prod_{i=0}^{n-1} (x - i) = sum_k s(n, k) x^k.
    """
    n, k = as_index(n, "stirling_first", "n"), as_index(k, "stirling_first", "k")
    if k > n:
        raise DomainError(f"stirling_first requires 0 <= k <= n, got ({n}, {k})")
    return _STIRLING.upto(n)[n][k]


def bell_partial(j: int, p: int) -> Fraction:
    """Partial exponential Bell polynomial B_{j,p} at the fixed sequence
    x_l = l!/(l+1), exact: B_{j,1} = x_j and
    B_{j,p} = sum_i C(j-1, i-1) x_i B_{j-i,p-1}."""
    j, p = as_index(j, "bell_partial", "j", 1), as_index(p, "bell_partial", "p", 1)
    if p > j:
        raise DomainError(f"bell_partial requires 1 <= p <= j, got ({j}, {p})")
    return _bell_partial(j, p)


@cache
def _bell_partial(j: int, p: int) -> Fraction:
    """``bell_partial`` for ints 1 <= p <= j, cached under them."""
    if p == 1:
        return Fraction(factorial(j), j + 1)
    return sum(comb(j - 1, i - 1) * _bell_partial(i, 1) * _bell_partial(j - i, p - 1)
               for i in range(1, j - p + 2))


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
    """The base row of a residue class r0 = p/q in (0, 1]: E_n = d_{r0,n} den_n
    over den_n = q^n B_n, B_n the lcm of the reduced denominators of
    q^j d_{r0,j} for j <= n.  ``den`` lists den_n, ``growth`` B_n / B_{n-1}.

    Keeps c_n = [w^n] h(w)^(r0-1) as integer numerators over one shared
    denominator, the integer p (p+q) ... (p+(n-1)q) and lcm(1..n+1), so growing
    resumes the power recurrence instead of restarting it.  It is the one place
    that recurrence runs: the rows above the base are the triangle of
    :class:`_DClass`.
    """

    def __init__(self, r0: Fraction):
        super().__init__(1)
        self.r = r0
        self.c = _SharedDenominatorRow(Fraction(1))
        self.rising = self.lcm = self.b = 1
        self.den, self.growth = [1], [1]

    def step(self, n: int) -> int:
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
        v = Fraction(cn.numerator * self.rising, cn.denominator)  # q^n d_{r0,n}, reduced
        b = lcm(self.b, v.denominator)
        self.growth.append(b // self.b)
        self.b = b
        self.den.append(q ** n * b)
        return v.numerator * (b // v.denominator)


class _DClass:
    """The d-rows of one residue class r0 = p/q in (0, 1]: row k holds the
    integers E_{r0+k,n} = d_{r0+k,n} den_n over the base row's den_n, shared by
    every row of the class (docs/d-coefficient-triangle.md).

    Row 0 is the base row.  Above it d_{R,n} = (R+n-2) d_{R,n-1} + d_{R-1,n}, so
    with den_n / den_{n-1} = q B_n / B_{n-1} every entry is one exact step,

        E_{r0+k,n} = (p + (k+n-2) q) (B_n / B_{n-1}) E_{r0+k,n-1} + E_{r0+k-1,n},

    and an integer, as q (R+n-2) is.  Rows only ever grow, each from the one
    below, so whatever the order of the requests every entry is the same.
    """

    def __init__(self, r0: Fraction):
        self.base = _DRow(r0)
        self.rows = [self.base.values]

    def row(self, k: int, n: int) -> list[int]:
        """The live list E_{r0+k,0..}, holding at least n + 1 entries; call
        under ``PRECISION_LOCK``, read it, never change it."""
        base, rows = self.base, self.rows
        base.upto(n)
        p, q, growth = base.r.numerator, base.r.denominator, base.growth
        while len(rows) <= k:
            rows.append([1])
        for i in range(1, k + 1):
            below, row = rows[i - 1], rows[i]
            for j in range(len(row), n + 1):
                row.append((p + (i + j - 2) * q) * growth[j] * row[j - 1] + below[j])
        return rows[k]


_D_ROWS: dict[Fraction, _DClass] = {}


def _d_integers(r: Fraction, j_max: int) -> tuple[list[int], list[int]]:
    """(E, den) with d_{r,j} = E[j] / den[j] for j <= j_max, r > 0 rational: the
    live lists of r's row and of its class's denominators.  Read them, never
    change them."""
    k = ceil(r) - 1
    with PRECISION_LOCK:
        cls = _D_ROWS.get(r - k)
        if cls is None:
            cls = _D_ROWS[r - k] = _DClass(r - k)
        return cls.row(k, j_max), cls.base.den


def d_coefficient_row(r: Fraction | int, j_max: int) -> list[Fraction]:
    """[d_{r,0}, ..., d_{r,j_max}], exact.

    Evaluates the Bell-row combination of the definition through its
    exponential generating function: with h(w) = -ln(1-w)/w = sum_k w^k/(k+1),

        sum_p B_{j,p}(1!/2, ...) Gamma(r)/Gamma(r-p) = j! [w^j] h(w)^(r-1),

    so d_{r,j} = [w^j] h(w)^(r-1) * r(r+1)...(r+j-1).  That power recurrence
    (Knuth, TAOCP vol. 2, 4.7) runs once per residue class, on its base row
    r0 = r - ceil(r) + 1 in (0, 1]; the rows r0 + 1, r0 + 2, ... grow from it by
    d_{R,n} = (R+n-2) d_{R,n-1} + d_{R-1,n}, one exact integer step per entry
    over the class's shared denominators (docs/d-coefficient-triangle.md).
    Rows are cached and only ever extended, so a deeper request continues
    where the last one stopped; the Fractions are read off those integers.
    """
    r = as_fraction(r, "d_coefficient_row needs a finite rational r")
    if r <= 0:
        raise DomainError("d_coefficient_row requires r > 0")
    j_max = as_index(j_max, "d_coefficient_row", "j_max")
    e, den = _d_integers(r, j_max)
    return list(map(Fraction, e[:j_max + 1], den))


def d_coefficient_exact(r: Fraction | int, j: int) -> Fraction:
    """d_{r,j} as an exact rational (r rational, r > 0), read off the cached row."""
    return d_coefficient_row(r, j)[j]


def d_coefficient(r: Fraction | int, j: int,
                  prec: PrecisionConfig | None = None) -> mp.mpf:
    """d_{r,j} as a floating value at working precision (see the exact form)."""
    with working_precision(prec):
        return as_mpf(d_coefficient_exact(r, j))
