import itertools
import math
import pickle
import random
import sys
import threading
import warnings
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import example, given, seed, settings, strategies as st
from mpmath.libmp import from_man_exp, fzero

from borelsum import (DomainError, FactorialExpansion, FormalSeries, GrowthEnvelope,
                      InsufficientCoefficientsError, PSI_LAMBDA_SUP,
                      PrecisionConfig, RamifiedPoint, binomial_series, branch_split,
                      branch_sum, euler_series, example2_series, factorial_expansion,
                      factorial_series_sum, gamma_ratio, generalized_coefficients,
                      generalized_factorial_sum, laplace_quadrature,
                      least_term_sum_ramified, partial_sum, power, psi_series, r_as,
                      r_as_ramified, r_fact, rotated_generalized_sum,
                      stirling_transform, summate, working_precision)
from borelsum import classical, ramified
from borelsum.oracle import BUILTIN_EVALUATORS, _binomial_evaluator, _quadrature
from borelsum.classical import _CoefficientRow, _TermRow, _kernel
from borelsum.ramified import _branch_weights


def test_branch_sum_m1_reduces_to_factorial(workprec, prec):
    # at m = 1 the one branch weight is z^0 = 1 and both routes project the
    # same cover point, so every field agrees bit for bit
    f = euler_series(60)
    env = GrowthEnvelope(A=4, B=0.05, lam=mp.inf)
    for mod, arg in [(4, 0), ("8.75", "-0.25"), (3, "1.2")]:
        z = RamifiedPoint(mp.mpf(mod), mp.mpf(arg))
        for lam in (1, mp.mpf("1.35")):
            res_b = branch_sum(f, lam, z, 40, envelope=env, prec=prec)
            res_f = factorial_series_sum(factorial_expansion(f, lam, prec=prec), z, 40,
                                         envelope=env, prec=prec)
            for field in ("estimate", "heuristic_error", "rigorous_bound",
                          "condition_number", "diverging"):
                assert getattr(res_b, field) == getattr(res_f, field), (mod, arg, lam, field)


def test_branch_sum_psi_table_rows(workprec, prec):
    # reference rows: N=14 -> 0.26256292301 (error 0.22e-9),
    #                 N=18 -> 0.2625629228800 (error 0.45e-11)
    f = psi_series(70, prec)
    z = RamifiedPoint(12, 0)
    lam = 2 / mp.log(2)
    r14 = branch_sum(f, lam, z, 14, prec=prec)
    assert abs(r14.estimate - mp.mpf("0.26256292301")) < mp.mpf("1e-11")
    assert mp.mpf("0.11e-9") <= r14.heuristic_error <= mp.mpf("0.44e-9")
    r18 = branch_sum(f, lam, z, 18, prec=prec)
    assert abs(r18.estimate - mp.mpf("0.2625629228800")) < mp.mpf("1e-13")
    assert r14.diverging is False and r18.diverging is False


def test_branch_sum_lambda4_row_with_warning(workprec, prec):
    f = psi_series(70, prec)
    z = RamifiedPoint(12, 0)
    env = GrowthEnvelope(A=1, B=1, lam=PSI_LAMBDA_SUP, domain="ramified")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        r14 = branch_sum(f, 4, z, 14, envelope=env, prec=prec)
    assert any("exceeds the envelope" in str(w.message) for w in caught)
    assert abs(r14.estimate - mp.mpf("0.262562922891")) < mp.mpf("1e-12")


def test_branch_sum_insufficient_coefficients(workprec):
    f = psi_series(20)
    with pytest.raises(InsufficientCoefficientsError):
        branch_sum(f, 1, RamifiedPoint(12, 0), 10)
    with pytest.raises(DomainError, match="branch_sum needs an integer N >= 0"):
        branch_sum(f, 1, RamifiedPoint(12, 0), -1)


def test_generalized_coefficients_low_indices(workprec, prec):
    # n <= m: empty correction sum, d_n = a_n / Gamma(n/m)
    f = psi_series(9, prec)
    d = generalized_coefficients(f, 9, prec)
    for n in (1, 2, 3):
        want = f.coefficients[n] * mp.rgamma(mp.mpf(n) / 3)
        assert abs(d[n - 1] - want) < mp.mpf(2) ** -230


def test_generalized_coefficients_classical_case(workprec):
    # m = 1, series 1/z^2: d_2 = 1, d_n = 1/(n-1) for n >= 3
    f = FormalSeries(1, [0, 0, 1] + [0] * 9)
    d = generalized_coefficients(f)
    assert abs(d[0]) == 0
    assert abs(d[1] - 1) < mp.mpf(2) ** -240
    for n in range(3, 12):
        assert abs(d[n - 1] - mp.mpf(1) / (n - 1)) < mp.mpf(2) ** -235


def _h_power_row(alpha: Fraction, n_max: int) -> list:
    """Exact coefficients [w^i] of h(w)^alpha, h(w) = -ln(1-w)/w.

    Independent Miller power recurrence, used only as a test oracle.
    """
    h = [Fraction(1, k + 1) for k in range(n_max + 1)]
    c = [Fraction(1)] + [Fraction(0)] * n_max
    for n in range(1, n_max + 1):
        acc = Fraction(0)
        for k in range(1, n + 1):
            if c[n - k]:
                acc += ((alpha + 1) * k - n) * h[k] * c[n - k]
        c[n] = acc / n
    return c


def _kernel_piece_taylor(f, l: int, j_max: int, prec):
    """Taylor coefficients b_j^(l) (in powers of 1-s) of the l-th piece of
    the kernel decomposition of the Borel transform:

        piece_l(s) = h(w)^(l/m-1) sum_k a_{l+mk} (w h(w))^k / Gamma(l/m + k),
        w = 1 - s,

    so that the flat kernel coefficients satisfy d_{l+mj} = b_j^(l).
    """
    m = f.m
    with working_precision(prec):
        rows = [_h_power_row(Fraction(l, m) + k - 1, j_max) for k in range(j_max + 1)]
        out = []
        for j in range(j_max + 1):
            acc = mp.mpc(0)
            for k in range(j + 1):
                flat = l + m * k
                if flat > f.n_max:
                    break
                c = rows[k][j - k]
                if c:
                    acc += (f.coefficients[flat] * mp.rgamma(mp.mpf(l) / m + k)
                            * mp.mpf(c.numerator) / c.denominator)
            out.append(acc)
        return out


def test_kernel_taylor_matches_stirling_for_m1(workprec, prec):
    # at m = 1 the kernel piece is the classical phi, so its Taylor
    # coefficients are exactly the Stirling-transform output
    f = euler_series(14, prec)
    b_stirling = stirling_transform(f.coefficients[1:], prec)
    b_taylor = _kernel_piece_taylor(f, 1, 10, prec)
    for j in range(11):
        assert abs(b_stirling[j] - b_taylor[j]) < mp.mpf(2) ** -200 * max(1, abs(b_taylor[j]))


def test_reindexing_identity_psi(workprec, prec):
    # d_{l+mj} = b_j^(l) with b from the kernel-piece Taylor expansion
    f = psi_series(24, prec)
    d = generalized_coefficients(f, 24, prec)
    for l in (1, 2, 3):
        b = _kernel_piece_taylor(f, l, 7, prec)
        for j in range(8):
            n = l + 3 * j
            if n <= 24:
                assert abs(d[n - 1] - b[j]) < mp.mpf(2) ** -180 * max(1, abs(b[j]))


def test_reindexing_identity_random(workprec, prec):
    # same identity on pseudo-random complex coefficients, m <= 4, depth <= 24
    rng = mp.mpf("0.37")
    for m in (2, 3, 4):
        coeffs = [mp.mpc(mp.sin(rng * (7 * k + m)), mp.cos(rng * (3 * k - 1)))
                  for k in range(25)]
        f = FormalSeries(m, coeffs)
        d = generalized_coefficients(f, 24, prec)
        for l in range(1, m + 1):
            j_max = (24 - l) // m
            b = _kernel_piece_taylor(f, l, j_max, prec)
            for j in range(j_max + 1):
                n = l + m * j
                assert abs(d[n - 1] - b[j]) < mp.mpf(2) ** -180 * max(1, abs(b[j]))


def test_generalized_m1_matches_factorial(workprec, prec):
    # flat index n = j + 1 shifts the truncation by one: both sums read the same
    # coefficient row and the one kernel chain, and the one body forms the same
    # tail K_{N+2} (lambda z + N + 1), so every field agrees bit for bit
    f = FormalSeries(1, [0, 0, 1] + [0] * 50)
    res_g = generalized_factorial_sum(f, 1, RamifiedPoint(3, 0), 41, prec=prec)
    res_f = factorial_series_sum(factorial_expansion(f, 1, prec=prec), mp.mpf(3), 40,
                                 prec=prec)
    assert res_g.estimate == res_f.estimate
    f = euler_series(202)
    for mod, arg in [(3, 0), ("2.5", 0), ("8.75", "-0.25"), (5, 1)]:
        z = RamifiedPoint(mp.mpf(mod), mp.mpf(arg))
        for lam in (1, mp.mpf("1.35")):
            e = factorial_expansion(f, lam, prec=prec)
            for N in (10, 50, 100, 200):
                res_f = factorial_series_sum(e, z, N, prec=prec)
                res_g = generalized_factorial_sum(f, lam, z, N + 1, prec=prec)
                for field in ("estimate", "heuristic_error", "condition_number",
                              "diverging"):
                    assert getattr(res_g, field) == getattr(res_f, field), \
                        (mod, arg, lam, N, field)


def test_generalized_estimates_move_within_their_condition_number():
    # the 256-bit sum against the same sum at 512 bits: the difference is
    # roundoff, which condition_number * 2^-256 bounds (Higham, ch. 3-4)
    narrow, wide = PrecisionConfig(256), PrecisionConfig(512)
    with working_precision(narrow):
        theta, lam = mp.pi / 3, mp.mpf("0.6")
    f256, f512 = example2_series(152, narrow), example2_series(152, wide)
    cases = [(rotated_generalized_sum, (f256, theta, lam), (f512, theta, lam),
              RamifiedPoint(5, 0), N) for N in (50, 100, 150)]
    lam = 2.885390081777927
    f256, f512 = psi_series(76, narrow), psi_series(76, wide)
    cases += [(generalized_factorial_sum, (f256, lam), (f512, lam), RamifiedPoint(12, 0), N)
              for N in (30, 75)]
    for route, args256, args512, z, N in cases:
        got = route(*args256, z, N, narrow)
        want = route(*args512, z, N, wide).estimate
        with working_precision(wide):
            gap = abs(got.estimate - want)
            assert gap <= got.condition_number * mp.mpf(2) ** -256 * abs(want), \
                (route.__name__, N, gap)


def test_generalized_heuristics_are_calibrated(workprec, prec):
    # the first-omitted estimate lies within 1x-10x of the true error: rotated
    # example2 (table5's lambda and theta) against the quadrature, and psi
    # against the branch route at N = 40, far more accurate than these sums
    f = example2_series(152, prec)
    theta, lam = mp.pi / 3, mp.mpf("0.6")
    for mod in ("4.5", 6, 8):
        z = RamifiedPoint(mp.mpf(mod), 0)
        oracle = laplace_quadrature(BUILTIN_EVALUATORS["example2"], theta,
                                    z.projection(prec), prec=prec)
        for N in (50, 150):
            res = rotated_generalized_sum(f, theta, lam, z, N, prec=prec)
            ratio = res.heuristic_error / abs(res.estimate - oracle)
            assert 1 <= ratio <= 10, (mod, N, ratio)
    f = psi_series(3 * 42, prec)
    lam = mp.mpf(2.885390081777927)
    for mod in (10, 12, 14):
        z = RamifiedPoint(mod, 0)
        ref = branch_sum(f, lam, z, 40, prec=prec).estimate
        for N in (24, 48, 75):
            res = generalized_factorial_sum(f, lam, z, N, prec=prec)
            ratio = res.heuristic_error / abs(res.estimate - ref)
            assert 1 <= ratio <= 10, (mod, N, ratio)


def test_binomial_family_at_m_3_and_4_against_the_quadrature(workprec, prec):
    # ground truth beyond example2: eight seeded members (1 + c zeta^(1/m))^alpha
    # at m = 3, 4, summed on theta = 0 at lambda = 1, branch N and generalized
    # flat index mN against the quadrature.  There |F| <= (1 + c rho^(1/m))^max(alpha, 0),
    # whose log is concave in rho, so its sampled peak times e^(-rho/4), with a
    # margin, is the quadrature's A for B = 0.25.  The generalized heuristic reads
    # 0.18x-8.25x of the true error over all 32 such members: the m > 1 under-read.
    members = list(itertools.product(
        (3, 4), (Fraction(-1), Fraction(-1, 3), Fraction(1, 2), Fraction(3, 2)),
        (Fraction(1, 2), Fraction(1)), (8, 12)))
    checked = 0
    for m, alpha, c, mod in random.Random(0).sample(members, 8):
        A = 1.1 * max((1 + float(c) * (i / 10) ** (1 / m)) ** float(max(alpha, 0))
                      * math.exp(-i / 40) for i in range(2000))
        truth = laplace_quadrature(_binomial_evaluator(m, alpha, c, A, 0.25), 0, mod,
                                   1e-30, prec)
        f = binomial_series(m, alpha, c, m * 42, prec)
        z = RamifiedPoint(mod, 0)
        for N in (10, 25, 40):
            branch = branch_sum(f, 1, z, N, prec=prec)
            gen = generalized_factorial_sum(f, 1, z, m * N, prec=prec)
            if branch.diverging or gen.diverging:
                continue
            checked += 1
            at = (m, alpha, c, mod, N)
            assert abs(branch.estimate - truth) <= 2 * branch.heuristic_error, at
            assert abs(gen.estimate - truth) <= 8 * gen.heuristic_error, at
    assert checked >= 12


def test_generalized_psi_table_row(workprec, prec):
    # reference: n = 18 (flat N = 54) -> 0.2625629228786
    f = psi_series(56, prec)
    lam = 2 / mp.log(2)
    res = generalized_factorial_sum(f, lam, RamifiedPoint(12, 0), 54, prec=prec)
    assert abs(res.estimate - mp.mpf("0.2625629228786")) < mp.mpf("1e-13")
    assert res.diverging is False


def test_generalized_divergence_detection(workprec, prec):
    # hypothesis violated: estimates drift and the diagnostic flags it
    f = example2_series(110, prec)
    z = RamifiedPoint(5, 0)
    r10 = generalized_factorial_sum(f, 1, z, 10, prec=prec)
    r100 = generalized_factorial_sum(f, 1, z, 100, prec=prec)
    assert abs(r10.estimate - r100.estimate) > mp.mpf("0.07")
    assert r100.diverging is True


def _divergence_flag(term_mags: list[mp.mpf]) -> bool:
    """The divergence flag of |K_1 c_1|..|K_N c_N|, rescanned from the list:
    the oracle of ``_TermRow.read``, which keeps its state over a sweep.

    Growth past 4x the smallest nonzero term, three or more terms before the
    last, signals the series left its convergence regime (or never had one).
    A dip below a quarter of both neighbours, one interleaved coefficient
    sequence crossing zero, is never the smallest."""
    t = term_mags
    if len(t) < 4:
        return False
    def dip(i):
        return 0 < i < len(t) - 1 and 4 * t[i] < min(t[i - 1], t[i + 1])
    i_min = min(range(len(t)), key=lambda i: t[i] or mp.inf)
    if t[-1] > 4 * t[i_min] and dip(i_min):  # rare: only then look past every dip
        i_min = min(range(len(t)), key=lambda i: mp.inf if not t[i] or dip(i) else t[i])
    return i_min < len(t) - 3 and t[-1] > 4 * t[i_min]


def _row_of(terms) -> _TermRow:
    """A term row holding the given terms K_n c_n from n = 1, formed at the
    ambient precision, with no chain behind it."""
    row = _TermRow([], {}, 1)
    row.values += [(mp.mpc(t), abs(mp.mpc(t)), mp.mpf(1)) for t in terms]
    return row


@pytest.mark.parametrize("mags, flag", [
    ([0, 0, 0, 0, 0], False),              # no nonzero term to grow from
    ([], False),                           # N = 0: no terms at all
    ([1, 0.125, 4], False),                # fewer than four terms say nothing
    ([1, 0.25, 0.5, 0.25, 2], True),       # growth past 4x the smallest term
    ([1, 0.25, 0.5, 0.25, 1], False),      # growth to exactly 4x is not past it
    ([0, 1, 0.25, 0.5, 0.5, 2], True),     # a zero term is not the smallest
    ([1, 0.5, 0.25, 0.125, 16, 256], False),  # smallest within the last three
    ([1, 0.5, 0.4, 0.01, 0.3, 0.2, 0.25], False),  # a dip below a quarter of both
                                                   # neighbours is not the smallest
    ([1, 0.5, 0.4, 0.01, 0.3, 0.4, 0.5, 2], True),  # growth past the smallest beside a dip
])
def test_divergence_flag(workprec, mags, flag):
    # the oracle over the whole list, and the term row's kept state read once
    assert _divergence_flag([mp.mpf(t) for t in mags]) is flag
    assert _row_of(mags).read(len(mags))[2] is flag


# moduli with zeros, exact ties, dips below a quarter of both neighbours
# (1/1024 beside anything else) and, appended, late growth
_MODULI = st.lists(st.one_of(st.just(0), st.sampled_from([1, 2, 16, 2 ** -10]),
                             st.integers(1, 64).map(lambda k: k / 64)), max_size=20)


@seed(31)
@settings(max_examples=150, deadline=None)
@given(_MODULI, st.lists(st.sampled_from([4, 64, 1024]), max_size=4),
       st.randoms(use_true_random=False))
# the first smallest term is a dip, and the last grows past 4x it
@example([1, 2 ** -10, 1, 0.25, 0.5, 0.5], [4], random.Random(0))
def test_the_kept_divergence_state_is_the_rescan_at_every_prefix(moduli, growth, rnd):
    # one row read at every prefix up, down and in random order, so that each
    # read starts from the state the previous one left
    with working_precision(PrecisionConfig(53)):
        mags = [mp.mpf(t) for t in moduli + growth]
        row, prefixes = _row_of(mags), list(range(len(mags) + 1))
        for n in prefixes + prefixes[::-1] + rnd.sample(prefixes, len(prefixes)):
            assert row.read(n)[2] is _divergence_flag(mags[:n]), (mags, n)


def test_the_euler_row_past_its_dip_reads_as_the_rescan(prec):
    # the Euler sum at lambda = 1.35, z = 3 dips to 7.2e-14 at b_96, term 97 of
    # its row (docs/first-omitted-estimate.md): swept up and then down past the
    # dip, every sum's flag is the whole-list rule's over the terms it read
    e = factorial_expansion(euler_series(202, prec), "1.35", 201, prec)
    _forget_the_last_point()
    Ns = range(60, 201)
    flags = {N: factorial_series_sum(e, 3, N, prec=prec).diverging for N in Ns}
    flags_down = {N: factorial_series_sum(e, 3, N, prec=prec).diverging for N in Ns[::-1]}
    with working_precision(prec):
        _, rows = classical._KERNEL_CHAINS(e.lam * mp.mpc(3), 1, prec.mantissa_bits)
        mags = [mag for _, mag, _ in rows[e._row].values[1:]]
        assert 4 * mags[96] < min(mags[95], mags[97])
        assert flags == flags_down == {N: _divergence_flag(mags[:N + 1]) for N in Ns}
    assert not any(flags[N] for N in (100, 110, 150))


def _parts(bits):
    """One part m 2^e of a drawn term: |m| < 2^bits and e in [-bits, bits], a
    spread of 2 bits in exponent, with zeros."""
    return st.one_of(st.just(fzero), st.builds(
        from_man_exp, st.integers(1 - 2 ** bits, 2 ** bits - 1), st.integers(-bits, bits)))


@seed(31)
@settings(max_examples=60, deadline=None)
@given(st.sampled_from([53, 113, 256]).flatmap(
    lambda bits: st.tuples(st.just(bits), st.lists(st.tuples(_parts(bits), _parts(bits)),
                                                   max_size=24))),
       st.randoms(use_true_random=False))
def test_the_kept_exact_sums_round_as_fsum_of_the_prefix(drawn, rnd):
    # mpf_sum, under mp.fsum, drops a part only past a 2 prec exponent gap to its
    # running sum, where the row's exact sum keeps it: the two can differ only
    # there, and the drawn spread stays within 2 prec
    bits, terms = drawn
    with working_precision(PrecisionConfig(bits)):
        terms = [mp.make_mpc(t) for t in terms]
        row, prefixes = _row_of(terms), list(range(len(terms) + 1))
        for n in prefixes + prefixes[::-1] + rnd.sample(prefixes, len(prefixes)):
            total, gross, _ = row.read(n)
            assert total == mp.fsum(terms[:n]) and gross == mp.fsum(abs(t) for t in terms[:n])


@pytest.mark.parametrize("terms", [
    [1, 2 ** -200, -1],                   # the small part after the large one
    [2 ** -200, 1, -1],                   # and before it
    [1j, 2 ** -200 * 1j + 1, -1j],        # in the imaginary part
])
def test_past_a_2prec_gap_the_row_rounds_the_exact_prefix(terms):
    # a declared difference from mp.fsum, which drops the 2^-200 part at
    # 53 bits: the row rounds the exact prefix once, as a sum at 1000 bits
    # rounded to 53 does
    with working_precision(PrecisionConfig(53)):
        terms = [mp.mpc(t) for t in terms]
        total, gross, _ = _row_of(terms).read(3)
        with mp.workprec(1000):
            exact, exact_gross = mp.fsum(terms), mp.fsum(abs(t) for t in terms)
        assert total == +exact != mp.fsum(terms) and gross == +exact_gross


def test_pipeline_agreement_psi(workprec, prec):
    # branch and generalized routes agree within 3x the sum of their
    # error estimates at matching information depth (flat = 3N + 3)
    f = psi_series(70, prec)
    z = RamifiedPoint(12, 0)
    with working_precision(prec):
        for lam in (1, 2 / mp.log(2)):
            for N in (10, 14, 18):
                rb = branch_sum(f, lam, z, N, prec=prec)
                rg = generalized_factorial_sum(f, lam, z, 3 * N + 3, prec=prec)
                gap = abs(rb.estimate - rg.estimate)
                assert gap <= 3 * (rb.heuristic_error + rg.heuristic_error)


def test_convergence_monotonicity_psi(workprec, prec):
    f = psi_series(85, prec)
    z = RamifiedPoint(12, 0)
    lam = 2 / mp.log(2)
    e10 = branch_sum(f, lam, z, 10, prec=prec).heuristic_error
    e25 = branch_sum(f, lam, z, 25, prec=prec).heuristic_error
    assert e25 < e10 / 10


def test_rotated_generalized_theta0(workprec, prec):
    f = example2_series(40, prec)
    z = RamifiedPoint(5, 0)
    r0 = rotated_generalized_sum(f, 0, 1, z, 30, prec=prec)
    rg = generalized_factorial_sum(f, 1, z, 30, prec=prec)
    assert abs(r0.estimate - rg.estimate) < mp.mpf(2) ** -220


def test_rotated_generalized_table5_row(workprec, prec):
    f = example2_series(60, prec)
    with working_precision(prec):
        res = rotated_generalized_sum(f, mp.pi / 3, mp.mpf("0.6"),
                                      RamifiedPoint(5, 0), 50, prec=prec)
        assert abs(mp.re(res.estimate) - mp.mpf("0.2356902")) < mp.mpf("1e-7")
        assert abs(mp.im(res.estimate) - mp.mpf("0.50e-5")) < mp.mpf("1e-7")


def test_least_term_psi(workprec, prec):
    f = psi_series(78, prec)
    res = least_term_sum_ramified(f, 2, RamifiedPoint(12, 0), prec=prec)
    assert res.N == 72
    assert abs(res.estimate - mp.mpf("0.26256292290")) < mp.mpf("1e-11")
    assert mp.mpf("0.115e-9") < res.heuristic_error < mp.mpf("0.46e-9")


def test_least_term_m1_euler_within_bound(workprec, prec):
    f = euler_series(20)
    z = RamifiedPoint(10, 0)
    res = least_term_sum_ramified(f, mp.mpf("0.9"), z, prec=prec)
    oracle = laplace_quadrature(BUILTIN_EVALUATORS["euler"], 0, mp.mpf(10), 1e-16, prec)
    A = 1 / (1 - mp.mpf("0.9"))
    assert abs(res.estimate - oracle) <= r_as(mp.mpf("0.9"), A, mp.mpf("0.1"), 9, mp.mpf(10))


def test_least_term_degenerate(workprec):
    f = euler_series(5)
    res = least_term_sum_ramified(f, mp.mpf("0.05"), RamifiedPoint(2, 0))
    assert res.N == 0
    assert abs(res.estimate - f.coefficients[0]) == 0


def test_least_term_index_is_taken_at_the_working_precision(prec):
    # from mpmath's default 53 bits r = 3 - 2^-100 would round to 3 first
    with working_precision(prec):
        r = 3 - mp.mpf(2) ** -100
    res = least_term_sum_ramified(euler_series(10), r, RamifiedPoint(1, 0), prec=prec)
    assert res.N == 2  # floor(r |z|)


def test_least_term_insufficient(workprec):
    f = psi_series(30)
    with pytest.raises(InsufficientCoefficientsError):
        least_term_sum_ramified(f, 2, RamifiedPoint(12, 0))


def test_r_as_ramified(workprec):
    z = RamifiedPoint(7, 0)
    # m = 1 reduces to r_as with C = A
    v1 = r_as_ramified(1, 2, 1, 5, z, 1)
    v2 = r_as(1, 2, 1, 5, mp.mpf(7))
    assert abs(v1 - v2) < mp.mpf(2) ** -220 * v1
    # monotone in C
    assert r_as_ramified(1, 3, 1, 5, z, 2) > r_as_ramified(1, 2, 1, 5, z, 2)
    # two-precision agreement of the plug-in value
    a = r_as_ramified(mp.mpf("1.9"), 1, 1, 22, RamifiedPoint(12, 0), 3,
                      PrecisionConfig(128))
    b = r_as_ramified(mp.mpf("1.9"), 1, 1, 22, RamifiedPoint(12, 0), 3,
                      PrecisionConfig(320))
    assert abs(a - b) / b < mp.mpf(2) ** -100
    with pytest.raises(DomainError):
        r_as_ramified(1, 1, 9, 3, z, 3)  # Re z <= B
    with pytest.raises(DomainError, match="r_as_ramified needs an integer m >= 1"):
        r_as_ramified(1, 1, 1, 3, z, 0)


def test_r_as_ramified_refuses_a_negative_index():
    # once mpmath's ValueError from the pole of the gamma function at n + 1 <= 0
    with pytest.raises(DomainError, match="r_as needs an integer n >= 0"):
        r_as_ramified(1, 1, 1, -1, RamifiedPoint(12, 0), 3)


# ---------------------------------------------------------------------------
# sweeps reuse the rows cached on the series
# ---------------------------------------------------------------------------


def _forget_the_last_point():
    """Empty the one-entry caches of the kernel chains and branch weights."""
    for memo in (classical._KERNEL_CHAINS, ramified._BRANCH_WEIGHTS):
        memo.cache_clear()


def test_psi_sweep_on_one_series_matches_a_fresh_series_per_row(prec):
    lam, z, depth = mp.mpf(2.885390081777927), RamifiedPoint(11.25, 0), 3 * 42
    f = psi_series(depth, prec)
    # N = 5..40, then down again after the rows have grown to 41
    for N in list(range(5, 41)) + [12, 5, 33]:
        swept = branch_sum(f, lam, z, N, prec=prec)
        fresh = branch_sum(psi_series(depth, prec), lam, z, N, prec=prec)
        assert swept == fresh, N
    # the memos' keys, interleaved: lambda 2/ln 2 and the double, 256 and 320
    # bits, |z| = 12 and 10, the sheets arg 2 pi and 0 (one projection).  Branch
    # and generalized sums share lambda z but not m, and their order alternates,
    # so that m, lambda, the bits and (for the branch weights, on the next pass)
    # the sheet each change alone between two consecutive sums
    with working_precision(prec):
        two_over_ln2, sheet = 2 / mp.ln(2), RamifiedPoint(12, 2 * mp.pi)
    twelve, routes = RamifiedPoint(12, 0), (branch_sum, generalized_factorial_sum)
    keys = [(two_over_ln2, twelve, prec), (lam, twelve, prec), (lam, twelve, PrecisionConfig(320)),
            (lam, RamifiedPoint(10, 0), prec), (lam, sheet, prec)]
    swept = []
    for Ns in ([5, 6, 40], [12, 5, 33]):  # grow, then read shorter prefixes
        for i, (lam, z, p) in enumerate(keys):
            for route in routes[::-1] if i % 2 else routes:
                swept += [(route, lam, z, p, N, route(f, lam, z, N, prec=p)) for N in Ns]
    for route, lam, z, p, N, result in swept:
        _forget_the_last_point()
        assert result == route(f, lam, z, N, prec=p), (route.__name__, lam, z, p, N)


# (route, per-point sums) with their term rows: psi branch sums under an
# envelope, Euler factorial sums, psi generalized (m = 3) and rotated example2
# (m = 2) sums
def _term_row_routes(prec):
    with working_precision(prec):
        lam, theta = mp.mpf(2.885390081777927), mp.pi / 3
    psi, ex2 = psi_series(3 * 44, prec), example2_series(70, prec)
    euler = factorial_expansion(euler_series(62), 1, 61, prec)
    strip = GrowthEnvelope(A=1, B=1, lam=PSI_LAMBDA_SUP)
    return {
        "branch": lambda z, N: branch_sum(psi, lam, z, N, envelope=strip, prec=prec),
        "factorial": lambda z, N: factorial_series_sum(euler, z, N, prec=prec),
        "generalized": lambda z, N: generalized_factorial_sum(psi, lam, z, 3 * N, prec),
        "rotated": lambda z, N: rotated_generalized_sum(ex2, theta, "0.6", z, N + 20, prec),
    }


@pytest.mark.parametrize("order", ["up", "down", "two points"])
def test_term_rows_give_the_sums_of_an_empty_cache_bit_for_bit(order, prec):
    # every field of a sum read off the term row a sweep grew equals the same sum
    # formed after the per-point cache is cleared
    z1, z2 = RamifiedPoint(12, "0.4"), RamifiedPoint(10, 0)
    Ns = list(range(5, 41, 5))
    steps = {"up": [(z1, N) for N in Ns], "down": [(z1, N) for N in Ns[::-1]],
             "two points": [(z, N) for N in Ns for z in (z1, z2)]}[order]
    for name, route in _term_row_routes(prec).items():
        _forget_the_last_point()
        swept = [route(z, N) for z, N in steps]
        for (z, N), result in zip(steps, swept):
            _forget_the_last_point()
            assert _fields(result) == _fields(route(z, N)), (name, z, N)


def test_a_sweep_forms_each_term_once(monkeypatch, prec):
    # N = 5..40 at one point under an envelope: each of psi's three branch rows
    # grows to its 41 terms once, not by N + 1 terms at every N; each of their
    # indices is folded into the row's exact sums once (Re, Im and modulus); and
    # the one mp.fsum left runs over the three branch weights
    formed, folded, sums, reading = [], [], [], []
    step, read = classical._TermRow.step, classical._TermRow.read
    mpf_sum, fsum = classical.mpf_sum, mp.fsum
    monkeypatch.setattr(classical._TermRow, "step",
                        lambda self, n: (formed.append(self), step(self, n))[1])
    def reads(self, n):  # the coefficient rows sum theirs outside any read
        reading.append(n)
        try:
            return read(self, n)
        finally:
            reading.pop()
    monkeypatch.setattr(classical._TermRow, "read", reads)
    def exact_sum(parts, *rest, **kw):
        folded.extend(parts[1:] if reading else [])
        return mpf_sum(parts, *rest, **kw)
    monkeypatch.setattr(classical, "mpf_sum", exact_sum)
    monkeypatch.setattr(mp, "fsum", lambda terms, *a, **k: (sums.append(list(terms)),
                                                            fsum(sums[-1], *a, **k))[1])
    f, z = psi_series(3 * 43, prec), RamifiedPoint(12, 0)
    strip = GrowthEnvelope(A=1, B=1, lam=PSI_LAMBDA_SUP)
    _forget_the_last_point()
    for N in range(5, 41):
        branch_sum(f, 2.885390081777927, z, N, strip, prec)
    assert sorted(Counter(map(id, formed)).values()) == [41, 41, 41]
    assert Counter(folded) == Counter(part for row in set(formed)
                                      for term, mag, _ in row.values[1:]
                                      for part in (*term._mpc_, mag._mpf_))
    assert len(sums) == 36 and max(map(len, sums)) == 3


def test_a_warm_branch_sum_takes_one_path(monkeypatch, prec):
    # a psi branch sweep at one point, warmed by a first pass: each sum enters
    # working_precision at most twice (itself and its point's projection) and
    # reads its branch rows through no public factorial_expansion
    f, z = psi_series(3 * 22, prec), RamifiedPoint(12, 0)
    _forget_the_last_point()
    sweep = [branch_sum(f, 2.885390081777927, z, N, prec=prec) for N in range(5, 21)]
    entries = _calls(monkeypatch, "working_precision")
    doors = _calls(monkeypatch, "factorial_expansion")
    for N, swept in zip(range(5, 21), sweep):
        entries.clear()
        assert branch_sum(f, 2.885390081777927, z, N, prec=prec) == swept
        assert len(entries) <= 2, N
    assert doors == []


def _calls(monkeypatch, name: str) -> list:
    """The argument tuples of every later call of classical's ``name``, through
    every borelsum module that binds it."""
    calls, door = [], getattr(classical, name)
    for module in [m for n, m in sys.modules.items() if n.startswith("borelsum")]:
        if getattr(module, name, None) is door:
            monkeypatch.setattr(module, name, lambda *a, **k: (calls.append(a), door(*a, **k))[1])
    return calls


def test_a_warm_least_term_sum_enters_its_precision_at_most_twice(monkeypatch, prec):
    # the sum forms its partial sum and each z^(-k/m) at its own precision, not
    # through the public partial_sum and power, which enter working_precision once
    # per call: 25 powers at N = 24.  It enters once itself and once in its point's
    # projection, and the partial sum stays the sum of the public powers' terms
    f, z = psi_series(80, prec), RamifiedPoint(12, 0)
    with working_precision(prec):
        r = mp.log(2)
        by_power = mp.fsum(f.coefficients[k] * power(z, -k, 3, prec) for k in range(25))
    warm = least_term_sum_ramified(f, r, z, prec=prec)
    assert warm.N == 24 and partial_sum(f, z, 24, prec) == by_power
    entries = _calls(monkeypatch, "working_precision")
    assert least_term_sum_ramified(f, r, z, prec=prec) == warm
    assert len(entries) <= 2


def test_a_hand_built_expansion_sums_as_the_one_read_from_its_row(prec):
    e = factorial_expansion(euler_series(62), 1, 61, prec)
    hand = FactorialExpansion(lam=e.lam, b=e.b, a0=e.a0, condition=e.condition)
    assert hand == e and hand._row is None and e._row is not None
    z, env = RamifiedPoint("8.75", "-0.25"), GrowthEnvelope(A=4, B=0.05, lam=mp.inf)
    for N in (40, 7, 60):
        _forget_the_last_point()
        linked = factorial_series_sum(e, z, N, env, prec)
        _forget_the_last_point()
        assert _fields(factorial_series_sum(hand, z, N, env, prec)) == _fields(linked), N
    # a hand-built expansion keeps no term row; a changed copy reads its own b
    with working_precision(prec):
        _, rows = classical._KERNEL_CHAINS(e.lam * z.projection(prec), 1, prec.mantissa_bits)
    assert list(rows) == []
    halved = replace(e, b=tuple(b / 2 for b in e.b))
    assert halved._row is None
    assert factorial_series_sum(halved, z, 40, prec=prec).estimate != linked.estimate


def _generalized(f, lam, theta, z, N, prec):
    """The generalized sum, rotated unless ``theta`` is None."""
    if theta is None:
        return generalized_factorial_sum(f, lam, z, N, prec)
    return rotated_generalized_sum(f, theta, lam, z, N, prec)


# (series builder, depth, lambda, theta, point): example2 plain and rotated by
# table5's pi/3 at lambda = 0.6, psi at 2/ln 2, and the m = 1 Euler route
_GENERALIZED_ROUTES = {
    "example2": (example2_series, 80, 1, None, RamifiedPoint(5, 0)),
    "example2-rotated": (example2_series, 80, "0.6", "pi/3", RamifiedPoint(5, 0)),
    "psi": (psi_series, 76, 2.885390081777927, None, RamifiedPoint(11.25, 0)),
    "euler": (euler_series, 80, "1.35", None, RamifiedPoint("8.75", "-0.25")),
}


def _route(name, prec):
    build, depth, lam, theta, z = _GENERALIZED_ROUTES[name]
    with working_precision(prec):
        lam = mp.mpf(lam)
        theta = None if theta is None else mp.pi / 3
    return build, depth, lam, theta, z


@pytest.mark.parametrize("name", list(_GENERALIZED_ROUTES))
def test_generalized_sweep_on_one_series_matches_a_fresh_series_per_row(name, prec):
    build, depth, lam, theta, z = _route(name, prec)
    f = build(depth, prec)
    # up, then down again after the row has grown to depth
    for N in [0, 1, 2, 5, 9, 20, 40, depth - 1, 7, 30]:
        swept = _generalized(f, lam, theta, z, N, prec)
        fresh = _generalized(build(depth, prec), lam, theta, z, N, prec)
        assert swept == fresh, (name, N)


def test_generalized_rows_are_keyed_by_lambda_theta_and_precision(prec):
    # two lambdas, theta and -theta, two precisions, interleaved on one series:
    # a row shared across any of them would give some call the wrong numbers
    narrow = PrecisionConfig(192)
    with working_precision(prec):
        lams, thetas = (mp.mpf("0.6"), mp.mpf(1)), (None, mp.pi / 3, -mp.pi / 3)
    f = example2_series(60, prec)
    z = RamifiedPoint(5, "0.125")
    calls = [(lam, th, p, N) for N in (12, 59, 31) for p in (prec, narrow)
             for lam in lams for th in thetas]
    for lam, th, p, N in calls:
        fresh = example2_series(60, prec)
        assert _generalized(f, lam, th, z, N, p) == _generalized(fresh, lam, th, z, N, p), \
            (lam, th, p.mantissa_bits, N)
    assert len(f._cache) == 2 * 3 * 2  # one (lambda, theta, bits) key per row


def test_generalized_row_grown_shallow_then_deep_equals_deep_at_once(prec):
    for name in _GENERALIZED_ROUTES:
        build, depth, lam, theta, z = _route(name, prec)
        stepped, direct = build(depth, prec), build(depth, prec)
        for N in (3, 4, 17, 50):
            _generalized(stepped, lam, theta, z, N, prec)
        assert _generalized(stepped, lam, theta, z, depth - 1, prec) == \
            _generalized(direct, lam, theta, z, depth - 1, prec), name
        with working_precision(prec):
            assert generalized_coefficients(stepped, depth, prec) == \
                generalized_coefficients(direct, depth, prec)


def test_generalized_rows_grow_consistently_across_threads(prec):
    # threads summing on one series at different N, switching often, grow
    # the same rows; every sum equals the serial one on a fresh series.  In
    # the second case each thread sums at its own point, so the kernel chains
    # of the last point are replaced under the threads
    build, depth, lam, theta, z = _route("example2-rotated", prec)
    requests = [(th, N) for th in (None, theta) for N in (60, 11, 79, 35)]
    for moduli in ((5,), (5, 6, 7, 8)):
        f = build(depth, prec)
        points = [RamifiedPoint(mod, z.argument) for mod in moduli]
        results = []
        start = threading.Barrier(4)

        def worker(i):
            start.wait(timeout=60)
            zi = points[i % len(points)]
            for th, N in requests[i:] + requests[:i]:
                results.append((zi, th, N, _generalized(f, lam, th, zi, N, prec)))

        old, old_prec = sys.getswitchinterval(), mp.mp.prec
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert mp.mp.prec == old_prec
        assert len(results) == 4 * len(requests)
        serial = {(zi, th, N): _generalized(build(depth, prec), lam, th, zi, N, prec)
                  for zi in points for th, N in requests}
        for zi, th, N, res in results:
            assert res == serial[zi, th, N], (zi, th, N)


def test_a_series_with_a_cached_generalized_row_pickles(prec):
    build, depth, lam, theta, z = _route("example2-rotated", prec)
    f = build(depth, prec)
    before = _generalized(f, lam, theta, z, 30, prec)
    (row,) = (v for v in f._cache.values() if isinstance(v, _CoefficientRow))
    # the row holds the series' order and coefficients, never the series
    assert row.m == f.m and row.coefficients is f.coefficients
    assert not any(v is f for v in vars(row).values())
    with mp.workprec(53):  # unpickling must not round the coefficients
        g = pickle.loads(pickle.dumps(f))
    assert g.coefficients == f.coefficients
    assert g._cache.keys() == f._cache.keys()
    assert _generalized(g, lam, theta, z, 30, prec) == before
    # the unpickled row grows on as a fresh one would
    assert _generalized(g, lam, theta, z, 70, prec) == \
        _generalized(build(depth, prec), lam, theta, z, 70, prec)


def test_generalized_errors_keep_their_order(prec):
    # each call also breaks every check after the one it pins, so only that one
    # can raise: N < 0, [theta not finite,] Re z <= 0, lambda, too few coefficients
    f = example2_series(20, prec)

    def plain(N, theta, z, lam):
        return generalized_factorial_sum(f, lam, z, N, prec)

    def rotated(N, theta, z, lam):
        return rotated_generalized_sum(f, theta, lam, z, N, prec)

    good = RamifiedPoint(5, 0)
    # Re z <= 0 where the sum is taken: arg 2, for the rotated route after theta = 1
    for route, behind, name in ((plain, RamifiedPoint(5, 2), "generalized_factorial_sum"),
                                (rotated, RamifiedPoint(5, 1), "rotated_generalized_sum")):
        cases = [(-1, mp.inf, behind, mp.nan, DomainError, f"{name} needs an integer N >= 0")]
        if route is rotated:
            cases.append((40, mp.inf, behind, mp.nan, DomainError, "theta must be finite"))
        cases += [
            (40, 1, behind, mp.nan, DomainError, r"needs finite z with Re z > 0"),
            (40, 1, good, mp.nan, DomainError, "lambda must be finite and positive"),
            (40, 1, good, -1, DomainError, "lambda must be finite and positive"),
            (40, 1, good, 1, InsufficientCoefficientsError,
             r"needs coefficients up to a_41, series stores a_0\.\.a_20")]
        for N, theta, z, lam, error, message in cases:
            with pytest.raises(error, match=message):
                route(N, theta, z, lam)
    assert not f._cache  # no failed call left a row behind
    with pytest.raises(DomainError, match="generalized_coefficients needs an integer n_max >= 0"):
        generalized_coefficients(f, -3, prec)
    with pytest.raises(DomainError, match="factorial_expansion needs an integer N >= 0"):
        factorial_expansion(euler_series(10), 1, -5, prec)


def test_branch_sum_equals_its_weighted_branch_factorial_sums(prec):
    # one kernel chain for all branches == one factorial_series_sum per branch;
    # every branch has the same bound, weighted by the sum of |z^((m-l)/m)|
    f, z, lam, N = psi_series(3 * 22, prec), RamifiedPoint(13.375, 0.25), 4, 20
    env = GrowthEnvelope(A=1, B=1, lam=PSI_LAMBDA_SUP, domain="ramified")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = branch_sum(f, lam, z, N, envelope=env, prec=prec)
        with working_precision(prec):
            a0, branches = branch_split(f)
            estimate, heuristic, per_branch = mp.mpc(a0), mp.mpf(0), mp.mpf(0)
            bounds = set()
            for l, fl in enumerate(branches, start=1):
                part = factorial_series_sum(factorial_expansion(fl, lam, N + 1, prec),
                                            z, N, env, prec)
                weight = power(z, f.m - l, f.m, prec)
                estimate += weight * part.estimate
                heuristic += abs(weight) * part.heuristic_error
                per_branch += abs(weight) * part.rigorous_bound
                bounds.add(part.rigorous_bound)
            (bound,) = bounds
            rigorous = bound * mp.fsum(abs(power(z, f.m - l, f.m, prec))
                                       for l in range(1, f.m + 1))
    assert (res.estimate, res.heuristic_error, res.rigorous_bound) == \
        (estimate, heuristic, rigorous)
    # the branch-by-branch sum is the same bound up to its own roundings
    assert abs(res.rigorous_bound - per_branch) < mp.mpf(2) ** -250 * per_branch


def test_branch_sum_computes_one_r_fact_for_all_branches(monkeypatch, prec):
    from borelsum import classical
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return r_fact(*args, **kwargs)

    monkeypatch.setattr(classical, "r_fact", counted)
    f, z, N = psi_series(3 * 16, prec), RamifiedPoint(14, 0), 14
    env = GrowthEnvelope(A=1, B=1, lam=PSI_LAMBDA_SUP, domain="ramified")
    res = branch_sum(f, 1, z, N, envelope=env, prec=prec)
    assert len(calls) == 1
    assert branch_sum(f, 1, z, N, prec=prec).rigorous_bound is None
    assert len(calls) == 1
    with working_precision(prec):
        expected = r_fact(1, 1, 1, N, z.projection(prec), prec) * _branch_weights(z, f.m)
    assert res.rigorous_bound == expected


def test_branch_bound_weights_r_fact_by_the_moduli_of_the_branch_weights(prec):
    # off the real axis |z^((m-l)/m)| and |z|^((m-l)/m) can round apart: the
    # bound takes the moduli of the very weights the estimate and heuristic take
    f, z = psi_series(3 * 27, prec), RamifiedPoint(10, -1.2)
    lam = mp.mpf(2.885390081777927)
    env = GrowthEnvelope(A=1, B=1, lam=PSI_LAMBDA_SUP, domain="ramified")
    for N in (3, 25):
        res = branch_sum(f, lam, z, N, envelope=env, prec=prec)
        with working_precision(prec):
            weights = mp.fsum(abs(power(z, 3 - l, 3, prec)) for l in (1, 2, 3))
            expected = r_fact(lam, 1, 1, N, z.projection(prec), prec) * weights
        assert res.rigorous_bound == expected, N


def test_lambda_warning_points_at_the_caller_of_the_sum(prec):
    f = psi_series(3 * 16, prec)
    z, env = RamifiedPoint(14, 0), GrowthEnvelope(A=1, B=1, lam=PSI_LAMBDA_SUP)
    for call in (lambda: branch_sum(f, 4, z, 14, envelope=env, prec=prec),
                 lambda: factorial_series_sum(factorial_expansion(euler_series(20), 4, prec=prec),
                                              z, 14, envelope=env, prec=prec),
                 lambda: summate(f, "branch", z, 14, lam=4, envelope=env, prec=prec)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call()
        assert [w.filename for w in caught] == [__file__]
    # under the default filter, once per location, a second calling line warns too
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        for _ in range(2):
            summate(f, "branch", z, 14, lam=4, envelope=env, prec=prec)
        summate(f, "branch", z, 14, lam=4, envelope=env, prec=prec)
    assert len({w.lineno for w in caught}) == len(caught) == 2


def _fields(res):
    return (res.estimate, res.N, res.method, res.rigorous_bound, res.heuristic_error,
            res.condition_number, res.diverging)


def test_summate_equals_each_route_bit_for_bit(prec):
    psi, euler, ex2 = psi_series(75, prec), euler_series(60), example2_series(60)
    off_axis, z5 = RamifiedPoint(12, "0.4"), RamifiedPoint(5, 0)
    strip = GrowthEnvelope(A=1, B=1, lam=PSI_LAMBDA_SUP)
    region = GrowthEnvelope(A=4, B=0.05, lam=mp.inf)
    lam, theta = 2 / mp.log(2), mp.pi / 3
    cases = [
        (summate(psi, "least-term", off_axis, r=2, prec=prec),
         least_term_sum_ramified(psi, 2, off_axis, prec=prec)),
        (summate(psi, "least-term", off_axis, r=2, envelope=strip, prec=prec),
         least_term_sum_ramified(psi, 2, off_axis, envelope=strip, prec=prec)),
        (summate(euler, "factorial", RamifiedPoint("8.75", "-0.25"), 40, lam="1.35",
                 envelope=region, prec=prec),
         factorial_series_sum(factorial_expansion(euler, "1.35", 41, prec),
                              RamifiedPoint("8.75", "-0.25"), 40, envelope=region, prec=prec)),
        (summate(psi, "branch", RamifiedPoint(10, "-1.2"), 14, lam=lam, envelope=strip,
                 prec=prec),
         branch_sum(psi, lam, RamifiedPoint(10, "-1.2"), 14, envelope=strip, prec=prec)),
        (summate(ex2, "generalized", z5, 40, theta="0", prec=prec),
         generalized_factorial_sum(ex2, 1, z5, 40, prec=prec)),
        (summate(ex2, "generalized", z5, 50, lam="0.6", theta=theta, prec=prec),
         rotated_generalized_sum(ex2, theta, "0.6", z5, 50, prec=prec)),
    ]
    assert [direct.method for _, direct in cases] == [
        "least-term", "least-term", "factorial", "branch", "generalized", "generalized-rotated"]
    assert cases[1][1].rigorous_bound is not None and cases[3][1].rigorous_bound is not None
    for via, direct in cases:
        assert _fields(via) == _fields(direct), direct.method
    z = RamifiedPoint(3, "0.5")
    oracle = summate(None, "oracle", z, theta="0.5", evaluator=BUILTIN_EVALUATORS["euler"],
                     prec=prec)
    quad = laplace_quadrature(BUILTIN_EVALUATORS["euler"], "0.5", z.projection(prec), prec=prec)
    value, error = _quadrature(BUILTIN_EVALUATORS["euler"], "0.5", z.projection(prec), None, prec)
    assert _fields(oracle) == (quad, 0, "oracle", None, error, None, None)
    assert value._mpc_ == quad._mpc_ and oracle.heuristic_error._mpf_ == error._mpf_


def test_summate_oracle_reads_a_complex_point_as_itself(prec):
    euler = BUILTIN_EVALUATORS["euler"]
    at_cover = summate(None, "oracle", RamifiedPoint(3, 0), evaluator=euler, prec=prec)
    for z in (3 + 0j, 3, mp.mpc(3)):
        assert summate(None, "oracle", z, evaluator=euler, prec=prec) == at_cover, z
    with working_precision(prec):
        w = mp.mpc(3, 1)
    assert summate(None, "oracle", w, evaluator=euler, prec=prec).estimate == \
        laplace_quadrature(euler, 0, w, prec=prec)
    for z in (None, "x", object()):
        with pytest.raises(DomainError, match="needs a finite number"):
            summate(None, "oracle", z, evaluator=euler, prec=prec)


def test_summate_rejects_what_no_route_can_sum(prec):
    f, z = psi_series(3 * 16, prec), RamifiedPoint(12, 0)
    for method in ("borel", "least-term", "oracle"):  # unknown; no r; no evaluator
        with pytest.raises(DomainError):
            summate(f, method, z, 14, prec=prec)


def test_branch_split_is_cached_per_precision(prec):
    f = psi_series(12, PrecisionConfig(512))
    with working_precision(prec):
        a0, first = branch_split(f)
        _, again = branch_split(f)
    with working_precision(PrecisionConfig(512)):
        _, wide = branch_split(f)
    assert all(a is b for a, b in zip(first, again, strict=True))
    assert not any(a is b for a, b in zip(first, wide, strict=True))
    # at the series' own precision the branches hold its coefficients unrounded
    assert [b.coefficients[1:] for b in wide] == [f.coefficients[l::3] for l in (1, 2, 3)]


def test_generalized_kernels_equal_gamma_ratio_bit_for_bit():
    # the kernel at n = l + jm is element j of the chain at offset l/m:
    # psi (m = 3), example2 (m = 2), m = 5 and 7, and a count below m; the
    # chains grow to count in one block, then every n <= count reads them
    for prec in map(PrecisionConfig, (53, 113, 256, 512)):
        with working_precision(prec):
            psi_w = mp.mpf(2.885390081777927) * 12
            ex2_w = mp.mpf("0.6") * 5 * mp.exp(1j * mp.pi / 3)
            cases = [(psi_w, 3, 76), (ex2_w, 2, 80), (mp.mpc(7.5, -2), 5, 61),
                     (mp.mpc("3.25", "0.5"), 7, 57), (psi_w, 7, 4)]
            for w, m, count in cases:
                singles = [gamma_ratio(w, (n - 1) // m, Fraction((n - 1) % m + 1, m), prec)
                           for n in range(1, count + 1)]
                assert [_kernel(w, m, n) for n in range(count, 0, -1)][::-1] == singles, \
                    (prec, m)


@pytest.mark.parametrize("m, n", [(1, 1), (1, 30), (3, 2), (3, 3), (3, 76), (5, 61), (7, 4)])
def test_kernel_grows_every_class_chain_to_its_index(m, n, prec):
    # _kernel(w, m, n) leaves each class chain l <= min(m, n) holding flat index n,
    # element (n - l) // m, and no element past it, so a term row can read K_1..K_n
    classical._KERNEL_CHAINS.cache_clear()
    with working_precision(prec):
        w = mp.mpc("7.5", "-2")
        _kernel(w, m, n)
        chains, _ = classical._KERNEL_CHAINS(w, m, prec.mantissa_bits)
    assert sorted(chains) == list(range(1, min(m, n) + 1))
    assert [len(chains[l].values) for l in sorted(chains)] == \
        [(n - l) // m + 1 for l in range(1, min(m, n) + 1)]


def test_psi_generalized_sum_carries_250_bits():
    # the 256-bit sum against the same sum at 768 bits, at the golden point
    # and off it, N up to the depth the golden table prints
    lam = 2.885390081777927
    narrow, wide = PrecisionConfig(256), PrecisionConfig(768)
    f256, f768 = psi_series(76, narrow), psi_series(76, wide)
    for z_mod in (12, 11.25):
        z = RamifiedPoint(z_mod, 0)
        for N in (12, 24, 48, 75):
            got = generalized_factorial_sum(f256, lam, z, N, narrow).estimate
            want = generalized_factorial_sum(f768, lam, z, N, wide).estimate
            with working_precision(wide):
                assert abs(got - want) < mp.mpf(2) ** -250 * abs(want), (z_mod, N)


# (route named, point, call): each once read z.modulus or z.rotated of a complex
# number and raised AttributeError; summate hands the point to the route
SHEET_ROUTES = [
    ("power", mp.mpc(12, 0), lambda z: power(z, 1, 3)),
    ("partial_sum", mp.mpc(12, 0), lambda z: partial_sum(psi_series(20), z, 3)),
    ("branch_sum", mp.mpc(12, 0), lambda z: branch_sum(psi_series(20), 1, z, 3)),
    ("rotated_generalized_sum", mp.mpc(12, 0),
     lambda z: rotated_generalized_sum(psi_series(20), "0.5", 1, z, 6)),
    ("least_term_sum_ramified", mp.mpc(12, 0),
     lambda z: least_term_sum_ramified(psi_series(60), 1, z)),
    ("r_as_ramified", mp.mpc(12, 0), lambda z: r_as_ramified(1, 1, 1, 3, z, 3)),
    ("branch_sum", 12 + 0j, lambda z: summate(psi_series(20), "branch", z, 3)),
    ("least_term_sum_ramified", 12 + 0j,
     lambda z: summate(psi_series(60), "least-term", z, r=1)),
    ("rotated_generalized_sum", 12 + 0j,
     lambda z: summate(psi_series(20), "generalized", z, 6, theta="0.5")),
]


@pytest.mark.parametrize("fn, z, call", SHEET_ROUTES,
                         ids=[f"{fn}-{type(z).__name__}" for fn, z, _ in SHEET_ROUTES])
def test_a_route_that_reads_the_sheet_refuses_a_complex_point(fn, z, call):
    with pytest.raises(DomainError, match=f"^{fn} reads the sheet of a RamifiedPoint z, "
                                          f"got {type(z).__name__}$"):
        call(z)


def test_the_projection_only_routes_take_a_complex_point(prec):
    # the sums and bounds that read z projected give the cover point's value for it
    f, e = psi_series(20, prec), factorial_expansion(euler_series(12, prec), 1, 10, prec)
    calls = [lambda z: generalized_factorial_sum(f, 1, z, 12, prec).estimate,
             lambda z: summate(f, "generalized", z, 12, prec=prec).estimate,
             lambda z: factorial_series_sum(e, z, 9, prec=prec).estimate,
             lambda z: r_as(1, 1, 1, 5, z, prec), lambda z: r_fact(1, 1, 1, 5, z, prec)]
    for call in calls:
        assert call(12 + 0j) == call(mp.mpc(12, 0)) == call(RamifiedPoint(12, 0))
