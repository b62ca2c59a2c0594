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

The library evaluates d along the antidiagonals of one triangle per residue
class r0 in (0, 1] (docs/d-coefficient-triangle.md).  The base row r0 runs the
power recurrence of :func:`d_coefficient_row` and is shared by the process.
Antidiagonal s, the entries d_{r0+k,s-k}, grows from antidiagonal s - 1 by
d_{R,n} = (R+n-2) d_{R,n-1} + d_{R-1,n}; over the one denominator den_s of its
base entry every entry is an integer, so a step is one integer multiply-add
per entry.  At r0 = 1 the base row is 1, 0, 0, ... over den 1 and antidiagonal
s is the unsigned Stirling row |s(s, k)|.  A coefficient row of ``classical``
reads one antidiagonal per c_n, so it keeps the last one of each class and
steps it; the public functions here walk the same step along the rows of a
fresh triangle, and nothing above a base row outlives its walk.  The Bell
form above is the definition the test suite checks the rows against;
:func:`bell_partial` gives its B_{j,p} at x_l = l!/(l+1), cached.

Every cached recurrence (the base d-rows, the coefficient and term rows of
``classical``, the psi coefficients of ``oracle``, the kernel chains of
``numerics``) is a ``numerics._GrowingRow``, grown in place under its
``PRECISION_LOCK``.
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

    Convention: prod_{i=0}^{n-1} (x - i) = sum_k s(n, k) x^k.  |s(n, k)| is entry
    k of antidiagonal n of the class r0 = 1, entry n - k of row k, read off a
    fresh walk of O(k (n - k)) integer steps.
    """
    n, k = as_index(n, "stirling_first", "n"), as_index(k, "stirling_first", "k")
    if k > n:
        raise DomainError(f"stirling_first requires 0 <= k <= n, got ({n}, {k})")
    return (-1) ** (n - k) * _triangle_row(Fraction(1), k, n - k)[0][-1]


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


class _DRow(_GrowingRow):
    """The base row of a residue class r0 = p/q in (0, 1]: E_n = d_{r0,n} den_n
    over den_n = q^n B_n, B_n the lcm of the reduced denominators of
    q^j d_{r0,j} for j <= n.  Of each index it keeps E_n (``values``) and den_n
    (``den``) only: a step above it reads B_n / B_{n-1} = den_n / (q den_{n-1}).

    Keeps c_n = [w^n] h(w)^(r0-1) as integer numerators over one shared
    denominator, the integer p (p+q) ... (p+(n-1)q) and lcm(1..n+1), so growing
    resumes the power recurrence instead of restarting it.  It is the one place
    that recurrence runs: every entry above the base comes from the step of
    :func:`_next_antidiagonal`.
    """

    def __init__(self, r0: Fraction):
        super().__init__(1)
        self.r = r0
        self.c = _SharedDenominatorRow(Fraction(1))
        self.rising = self.lcm = self.b = 1
        self.den = [1]

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
        self.b = b = lcm(self.b, v.denominator)
        self.den.append(q ** n * b)
        return v.numerator * (b // v.denominator)


class _UnitRow(_DRow):
    """The base row of the class r0 = 1: 1/z = Gamma(z)/Gamma(z+1), so d_{1,n} = 0
    for n >= 1, over den_n = 1; its antidiagonals are the unsigned Stirling rows."""

    def step(self, n: int) -> int:
        self.den.append(1)
        return 0


# the base row of each residue class r0 in (0, 1] read so far, O(n) integers each
_BASE_ROWS: dict[Fraction, _DRow] = {}


def _base_row(r0: Fraction) -> _DRow:
    """The shared base row of the class r0 in (0, 1], made on first use."""
    with PRECISION_LOCK:
        row = _BASE_ROWS.get(r0)
        if row is None:
            row = _BASE_ROWS[r0] = (_UnitRow if r0 == 1 else _DRow)(r0)
        return row


def _next_antidiagonal(base: _DRow, s: int, prev: list[int]) -> list[int]:
    """Antidiagonal s >= 1 of the class of ``base`` from antidiagonal s - 1, ``prev``.

    Antidiagonal s holds the integers F_s[k] = d_{r0+k,s-k} den_s, k = 0..s, over
    the one denominator den_s of its base entry (docs/d-coefficient-triangle.md).
    F_s[0] is the base row's E_s.  Above it d_{R,n} = (R+n-2) d_{R,n-1} + d_{R-1,n}
    and den_s = q (B_s / B_{s-1}) den_{s-1} make each entry one exact step,

        F_s[k] = (B_s / B_{s-1}) ((p + (s-2) q) F_{s-1}[k] + q F_{s-1}[k-1]),

    with F_{s-1}[s] = 0, so F_s[s] = den_s (d_{R,0} = 1).  The result is one entry
    longer than ``prev``: the first w entries of antidiagonal s - 1 give the first
    w of antidiagonal s.
    """
    e, den, q = base.upto(s)[s], base.den, base.r.denominator
    g = den[s] // (q * den[s - 1])  # B_s / B_{s-1}
    a, b = g * (base.r.numerator + (s - 2) * q), g * q
    return [e, *[a * x + b * y for x, y in zip([*prev[1:], 0], prev)]]


def _triangle_row(r0: Fraction, k: int, j_max: int) -> tuple[list[int], list[int]]:
    """(G, den) with d_{r0+k,j} = G[j] / den[j] for j <= j_max: row k of class
    r0 over its antidiagonals' den_{k+j}, grown from the base row by the step
    of :func:`_next_antidiagonal` read along a row, G_i[0] = den_i and
    G_i[j] = (B_{i+j} / B_{i+j-1}) ((p + (i+j-2) q) G_i[j-1] + q G_{i-1}[j]),
    keeping only the last row: O(k j_max) integer steps."""
    base, p, q = _base_row(r0), r0.numerator, r0.denominator
    row = base.upto(k + j_max)[:j_max + 1]
    den = base.den
    g = [1, *(den[t] // (q * den[t - 1]) for t in range(1, k + j_max + 1))]
    for i in range(1, k + 1):
        x = row[0] = den[i]
        for j in range(1, j_max + 1):
            x = row[j] = g[i + j] * ((p + (i + j - 2) * q) * x + q * row[j])
    return row, den[k:k + j_max + 1]


def d_coefficient_row(r: Fraction | int, j_max: int) -> list[Fraction]:
    """[d_{r,0}, ..., d_{r,j_max}], exact.

    Evaluates the Bell-row combination of the definition through its
    exponential generating function: with h(w) = -ln(1-w)/w = sum_k w^k/(k+1),

        sum_p B_{j,p}(1!/2, ...) Gamma(r)/Gamma(r-p) = j! [w^j] h(w)^(r-1),

    so d_{r,j} = [w^j] h(w)^(r-1) * r(r+1)...(r+j-1).  That power recurrence
    (Knuth, TAOCP vol. 2, 4.7) runs once per residue class, on its shared base
    row r0 = r - ceil(r) + 1 in (0, 1]; row r = r0 + k is row k of a fresh walk
    from it, one exact integer step per entry, O(k j_max) in all
    (docs/d-coefficient-triangle.md), and the Fractions are read off those
    integers over their denominators.
    """
    r = as_fraction(r, "d_coefficient_row needs a finite rational r")
    if r <= 0:
        raise DomainError("d_coefficient_row requires r > 0")
    j_max = as_index(j_max, "d_coefficient_row", "j_max")
    k = ceil(r) - 1
    return list(map(Fraction, *_triangle_row(r - k, k, j_max)))


def d_coefficient_exact(r: Fraction | int, j: int) -> Fraction:
    """d_{r,j} as an exact rational (r rational, r > 0), read off a fresh walk."""
    return d_coefficient_row(r, j)[j]


def d_coefficient(r: Fraction | int, j: int,
                  prec: PrecisionConfig | None = None) -> mp.mpf:
    """d_{r,j} as a floating value at working precision (see the exact form)."""
    with working_precision(prec):
        return as_mpf(d_coefficient_exact(r, j))
