import sys
import threading
from fractions import Fraction
from math import factorial

import mpmath as mp
import pytest

from borelsum import (PSI_LAMBDA_SUP, DomainError, RamifiedPoint, bell_partial,
                      d_coefficient, d_coefficient_exact, d_coefficient_row,
                      example2_series, generalized_coefficients, generalized_factorial_sum,
                      psi_scaled_coefficients, psi_series, rotated_generalized_sum,
                      stirling_first, working_precision)
from borelsum import combinatorics, oracle

from conftest import exact, rounded

# ---------------------------------------------------------------------------
# Stirling numbers
# ---------------------------------------------------------------------------


def test_stirling_base_cases():
    assert stirling_first(0, 0) == 1
    for n in range(1, 15):
        assert stirling_first(n, 0) == 0
        assert stirling_first(n, n) == 1


def test_stirling_small_values():
    # x(x-1)(x-2) = x^3 - 3x^2 + 2x
    assert stirling_first(3, 1) == 2
    assert stirling_first(3, 2) == -3
    assert stirling_first(2, 1) == -1


def test_stirling_recurrence_interior():
    for n in range(0, 20):
        for k in range(0, n + 2):
            lhs = stirling_first(n + 1, k)
            rhs = (stirling_first(n, k - 1) if k >= 1 else 0)
            rhs -= n * (stirling_first(n, k) if k <= n else 0)
            assert lhs == rhs


def test_stirling_out_of_range():
    with pytest.raises(DomainError):
        stirling_first(3, 4)
    with pytest.raises(DomainError):
        stirling_first(-1, 0)


def test_falling_factorial_polynomial_identity():
    # sum_k s(n,k) x^k = prod_{i=0}^{n-1} (x - i), exactly, n <= 12
    for n in range(0, 13):
        for x in range(-5, 6):
            direct = 1
            for i in range(n):
                direct *= (x - i)
            bysum = sum(stirling_first(n, k) * x ** k for k in range(n + 1))
            assert bysum == direct


# ---------------------------------------------------------------------------
# Bell polynomials
# ---------------------------------------------------------------------------


def _partitions_into_blocks(elements, p):
    """All set partitions of ``elements`` into exactly p nonempty blocks."""
    if p == 1:
        yield [list(elements)]
        return
    if len(elements) < p:
        return
    first, rest = elements[0], elements[1:]
    # first element alone in a block
    for sub in _partitions_into_blocks(rest, p - 1):
        yield [[first]] + sub
    # first element joined to each block
    for sub in _partitions_into_blocks(rest, p):
        for i in range(len(sub)):
            yield sub[:i] + [[first] + sub[i]] + sub[i + 1:]


def _bell_bruteforce(j, p, x):
    # B_{j,p}(x_1, ...) = sum over partitions of {1..j} into p blocks of
    # prod_blocks x_{|block|}
    total = Fraction(0)
    for part in _partitions_into_blocks(list(range(j)), p):
        term = Fraction(1)
        for block in part:
            term *= x(len(block))
        total += term
    return total


def _x(l: int) -> Fraction:
    """The fixed Bell argument sequence x_l = l!/(l+1) of the d-coefficients."""
    return Fraction(factorial(l), l + 1)


def test_bell_fixed_arguments():
    assert _x(1) == Fraction(1, 2) and _x(2) == Fraction(2, 3)
    for j in range(1, 12):
        assert bell_partial(j, 1) == _x(j)


def test_bell_simple_values():
    assert bell_partial(1, 1) == Fraction(1, 2)
    assert bell_partial(3, 2) == 1  # 3 x_1 x_2 = 3 * (1/2) * (2/3)
    for j in range(1, 9):
        assert bell_partial(j, j) == Fraction(1, 2) ** j


def test_bell_out_of_range():
    with pytest.raises(DomainError):
        bell_partial(3, 4)
    with pytest.raises(DomainError):
        bell_partial(3, 0)


def test_bell_reads_its_indices_as_integers():
    # once a TypeError for the first three, and 3/2 for the last
    for j, p, name in [(2.5, 1, "j"), ("3", 1, "j"), (None, 1, "j"), (3, 1.0, "p")]:
        with pytest.raises(DomainError, match=f"bell_partial needs an integer {name} >= 1"):
            bell_partial(j, p)
    assert bell_partial(3, True) == bell_partial(3, 1) == Fraction(3, 2)


def test_bell_vs_partition_enumeration():
    for j in range(1, 9):
        for p in range(1, j + 1):
            assert bell_partial(j, p) == _bell_bruteforce(j, p, _x)


# ---------------------------------------------------------------------------
# d-coefficients
# ---------------------------------------------------------------------------


def test_d_coefficient_r1_vanishes():
    for j in range(1, 10):
        assert d_coefficient_exact(1, j) == 0


def test_d_coefficient_r2_is_factorial():
    for j in range(1, 12):
        assert d_coefficient_exact(2, j) == factorial(j)


def test_integer_d_rows_are_the_stirling_rows():
    # d_{k,j} = |s(k+j-1, k-1)|: at m = 1 the generalized route's d_n are the
    # factorial route's Stirling transform, which makes the two routes one sum
    for k in range(1, 30):
        row = d_coefficient_row(k, 40)
        assert row == [abs(stirling_first(k + j - 1, k - 1)) for j in range(41)], k


def test_d_coefficient_j1_closed_form():
    # single term: B_{1,1} = 1/2 and Gamma(r+1)/Gamma(r-1) = r(r-1)
    for r in (Fraction(1, 2), Fraction(5, 3), Fraction(7, 2), Fraction(4)):
        assert d_coefficient_exact(r, 1) == r * (r - 1) / 2


def test_d_coefficient_float_matches_exact(prec):
    v = d_coefficient(Fraction(3, 2), 6, prec)
    exact = d_coefficient_exact(Fraction(3, 2), 6)
    assert abs(v - mp.mpf(exact.numerator) / exact.denominator) < mp.mpf(2) ** -200


def test_d_coefficient_domain():
    with pytest.raises(DomainError):
        d_coefficient_exact(0, 3)
    with pytest.raises(DomainError):
        d_coefficient_exact(Fraction(-1, 2), 3)
    with pytest.raises(DomainError, match="d_coefficient_row needs an integer j_max >= 0"):
        d_coefficient_row(Fraction(1, 2), -1)


def _d_bell(r, j):
    """d_{r,j} by its definition, independent of the library's row recurrence:
    sum_p B_{j,p} (r-1)...(r-p) * r(r+1)...(r+j-1) / j!."""
    r = Fraction(r)
    if j == 0:
        return Fraction(1)
    inner, falling = Fraction(0), Fraction(1)
    for p in range(1, j + 1):
        falling *= r - p  # Gamma(r)/Gamma(r-p), exactly 0 past a pole
        inner += bell_partial(j, p) * falling
    rising = Fraction(1)
    for i in range(j):
        rising *= r + i
    return inner * rising / factorial(j)


def test_d_row_matches_pointwise_exactly():
    # generating-function route == Bell-sum route, exact equality
    for r in (Fraction(1, 2), Fraction(2, 3), Fraction(3, 2), Fraction(2), Fraction(5)):
        row = d_coefficient_row(r, 40)
        for j in range(0, 41, 7):
            assert row[j] == _d_bell(r, j)
        assert row[1] == _d_bell(r, 1)


def _d_power_recurrence(r, j_max):
    """[d_{r,0..j_max}] by the power recurrence for h(w)^(r-1) in Fraction
    arithmetic, one Fraction per operation: the library runs the same
    recurrence in integers over a shared denominator."""
    r = Fraction(r)
    p, q = r.numerator, r.denominator
    c, d, rising = [Fraction(1)], [Fraction(1)], Fraction(1)
    for n in range(1, j_max + 1):
        # n c_n = sum_{k=1}^{n} (r k - n) h_k c_{n-k},  h_k = 1/(k+1)
        acc = Fraction(0)
        for k in range(1, n + 1):
            if c[n - k]:
                acc += Fraction(p * k - n * q, q * (k + 1)) * c[n - k]
        c.append(acc / n)
        rising *= r + n - 1
        d.append(c[n] * rising)
    return d


# every row the workloads read: example2 at N = 150 (r = l/2, j <= (151 - l)/2),
# the psi generalized reference at N = 75 (r = l/3, j <= (76 - l)/3), and
# integer r to a depth of 75
_WORKLOAD_ROWS = ([(Fraction(l, 2), (151 - l) // 2) for l in range(1, 151)]
                  + [(Fraction(l, 3), (76 - l) // 3) for l in range(1, 77)]
                  + [(Fraction(r), 75) for r in range(1, 76)])


def test_d_rows_equal_the_fraction_power_recurrence(monkeypatch):
    # above its class's base row r - ceil(r) + 1 a row grows by the triangle's step,
    # never by the power recurrence the reference runs; at small r and j the Bell
    # definition agrees too
    monkeypatch.setattr(combinatorics, "_BASE_ROWS", {})
    for r, j_max in _WORKLOAD_ROWS:
        row = d_coefficient_row(r, j_max)
        assert row == _d_power_recurrence(r, j_max), (r, j_max)
        if r <= 4:
            assert row[:13] == [_d_bell(r, j) for j in range(min(j_max, 12) + 1)], r


# the same rows requested in three orders: descending r inside one class,
# interleaved classes (4/3 and 5/3 sit above 1/3 and 2/3), shallow then deep
_REQUEST_ORDERS = {
    "descending": [(Fraction(l, 2), (121 - l) // 2) for l in range(119, 0, -2)],
    "interleaved": [(Fraction(l, 3), j) for j in (5, 40, 17, 60, 2) for l in (1, 2, 4, 5)],
    "shallow-then-deep": [(Fraction(l, m), j) for j in (3, 50) for m in (2, 5)
                          for l in range(1, 4 * m) if l % m],
}


@pytest.mark.parametrize("order", list(_REQUEST_ORDERS))
def test_d_rows_are_the_same_in_any_request_order(monkeypatch, order):
    requests = _REQUEST_ORDERS[order]
    depth = {r: max(j for s, j in requests if s == r) for r, _ in requests}
    want = {r: _d_power_recurrence(r, j) for r, j in depth.items()}
    monkeypatch.setattr(combinatorics, "_BASE_ROWS", {})
    for r, j in requests:
        assert d_coefficient_row(r, j) == want[r][:j + 1], (r, j)
    # one shared base row per residue class, keyed by r0 in (0, 1]
    assert set(combinatorics._BASE_ROWS) == {r - (r.numerator // r.denominator) for r in depth}


def test_d_rows_grown_in_steps_equal_fresh_rows(monkeypatch):
    # each growth resumes over the shared denominator left by the last one
    rs = (Fraction(1, 2), Fraction(2, 3), Fraction(7, 3), Fraction(149, 2), Fraction(3))
    monkeypatch.setattr(combinatorics, "_BASE_ROWS", {})
    grown = {}
    for j in (0, 1, 2, 5, 6, 17, 40, 41, 75):
        grown = {r: d_coefficient_row(r, j) for r in rs}
    monkeypatch.setattr(combinatorics, "_BASE_ROWS", {})
    assert grown == {r: d_coefficient_row(r, 75) for r in rs}
    assert all(grown[r] == _d_power_recurrence(r, 75) for r in rs)


def _generalized_from_bell(f, n_max):
    """d_1..d_{n_max} of the generalized expansion as Fraction sums: each weight
    w is |s(n/m-1, l/m-1)| at integer l/m and the Bell form of d_{l/m,(n-l)/m}
    at fractional l/m; sum w Re a_l and sum w Im a_l are exact, each rounded
    once, then divided by Gamma(n/m)."""
    m, a = f.m, f.coefficients
    out = []
    for n in range(1, n_max + 1):
        re = im = Fraction(0)
        for l in range(n - (n - 1) // m * m, n + 1, m):
            w = (Fraction(abs(stirling_first(n // m - 1, l // m - 1))) if l % m == 0 else
                 _d_bell(Fraction(l, m), (n - l) // m))
            re, im = re + w * exact(a[l].real), im + w * exact(a[l].imag)
        out.append(mp.mpc(rounded(re), rounded(im)) / mp.gamma(mp.mpf(n) / m))
    return out


@pytest.mark.parametrize("series, n_max", [(example2_series, 41), (psi_series, 40)])
def test_generalized_coefficients_match_bell_definition(series, n_max, prec):
    # every d_{l/m,j} generalized_coefficients uses, checked exactly against
    # the Bell form, and the kernel coefficients built from them bit for bit
    f = series(n_max, prec)
    for n in range(1, n_max + 1):
        for j in range(1, (n - 1) // f.m + 1):
            r = Fraction(n - j * f.m, f.m)
            assert d_coefficient_exact(r, j) == _d_bell(r, j)
    with working_precision(prec):
        expected = _generalized_from_bell(f, n_max)
    assert generalized_coefficients(f, n_max, prec) == expected


def test_d_rows_grow_to_the_same_values(monkeypatch, prec):
    # the table4/table5 call pattern: a shallow request, then a deeper one
    f = example2_series(41, prec)
    monkeypatch.setattr(combinatorics, "_BASE_ROWS", {})
    shallow = generalized_coefficients(f, 11, prec)
    grown = generalized_coefficients(f, 41, prec)
    monkeypatch.setattr(combinatorics, "_BASE_ROWS", {})
    fresh = generalized_coefficients(f, 41, prec)
    assert grown == fresh
    assert shallow == fresh[:11]


def test_generalized_passes_build_no_integer_d_row(monkeypatch, prec):
    # d_{k,j} at integer k is the Stirling antidiagonal of the class r0 = 1, whose
    # base row is 1, 0, 0, ...: a generalized pass (rotated too) runs the power
    # recurrence on fractional base rows only
    recurred, step = set(), combinatorics._DRow.step
    monkeypatch.setattr(combinatorics, "_BASE_ROWS", {})
    monkeypatch.setattr(combinatorics._DRow, "step",
                        lambda self, n: (recurred.add(self.r), step(self, n))[1])
    z = RamifiedPoint(8, 0)
    generalized_factorial_sum(example2_series(61, prec), 1, z, 60, prec)
    rotated_generalized_sum(example2_series(61, prec), "0.5", "0.6", z, 60, prec)
    generalized_factorial_sum(psi_series(61, prec), PSI_LAMBDA_SUP, z, 60, prec)
    assert recurred and all(0 < r < 1 for r in recurred)
    assert Fraction(1) in combinatorics._BASE_ROWS


# each row kind: (give it an empty cache, its requests, one read through the API)
_ROW_KINDS = {
    "d-rows": (lambda patch: patch.setattr(combinatorics, "_BASE_ROWS", {}),
               [(Fraction(l, 3), j) for l in (1, 2, 4) for j in (30, 120, 45, 150, 80)],
               d_coefficient_row),
    "stirling": (lambda patch: patch.setattr(combinatorics, "_BASE_ROWS", {}),
                 [(n, k) for n in (60, 250, 150, 400, 20) for k in (0, 1, n // 3, n)],
                 stirling_first),
    "psi": (lambda patch: patch.setattr(oracle, "_PSI", oracle._PsiRow()),
            [(depth,) for depth in (40, 160, 75, 200, 12)],
            psi_scaled_coefficients),
}


@pytest.mark.parametrize("kind", list(_ROW_KINDS))
def test_rows_grow_consistently_across_threads(monkeypatch, kind):
    # more threads than cores, switching often, all growing the same rows
    reset, requests, read = _ROW_KINDS[kind]
    reset(monkeypatch)
    results = []
    start = threading.Barrier(6)

    def worker(i):
        start.wait(timeout=60)
        for args in requests[i:] + requests[:i]:
            results.append((args, read(*args)))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 6 * len(requests)
    reset(monkeypatch)
    for args, value in results:
        assert value == read(*args)


def test_expansion_identity_moderate_depth(prec320):
    # 1/z^r = Gamma(z)/Gamma(r+z) + sum_j d_{r,j} Gamma(z)/Gamma(r+j+z) at a
    # point where the series converges quickly (the full slow-convergence
    # check at z = 3 runs in the acceptance suite)
    from borelsum import working_precision
    with working_precision(prec320):
        r = Fraction(2, 3)
        rm = mp.mpf(2) / 3
        z = mp.mpc(9, 3)
        row = d_coefficient_row(r, 160)
        K = mp.exp(mp.loggamma(z) - mp.loggamma(rm + z))
        tot = K
        for j in range(1, 161):
            K = K / (rm + j - 1 + z)
            tot += mp.mpf(row[j].numerator) / row[j].denominator * K
        assert abs(tot - mp.power(z, -rm)) < mp.mpf("1e-13")
