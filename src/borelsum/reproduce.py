"""Canned reference reproductions with stored expected values.

Each target re-runs one stored reference configuration and grades the result
against the stored digits: estimates must land within one unit in the last
stored digit, error columns within a factor of two.  Stored digits are kept
verbatim as strings; tolerances derive from the strings themselves.

Targets
-------
table1         branch method, psi series, lambda = 2/ln 2, z = 12
table2         branch method, psi series, lambda = 4 (beyond the permitted
               sup 2/ln 2: expect a warning, empirically still converging)
table3         generalized method, psi series, lambda = 2/ln 2, z = 12
               (error column is deviation from the stored reference value)
table4         generalized method, example2, lambda = 1, z = 5: divergence
table5         generalized method rotated by pi/3, lambda = 0.6, z = 5
fig2           three-curve bound comparison, A = B = 1, z = 10+10i
leastterm-psi  least-term summation of psi at z = 12, r = 2
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import mpmath as mp

from .classical import bound_comparison_table
from .errors import DomainError
from .numerics import PrecisionConfig, as_mpf, working_precision
from .oracle import PSI_LAMBDA_SUP, psi_series, example2_series
from .ramified import (branch_sum, generalized_factorial_sum,
                       least_term_sum_ramified, rotated_generalized_sum)
from .series import GrowthEnvelope, RamifiedPoint

TARGETS = ("table1", "table2", "table3", "table4", "table5", "fig2", "leastterm-psi")

# printed rows: N -> (estimate, error-column)
_TABLE1 = {
    10: ("0.262562935", "0.20e-7"),
    14: ("0.26256292301", "0.22e-9"),
    18: ("0.2625629228800", "0.45e-11"),
    25: ("0.262562922877259", "0.15e-13"),
    33: ("0.262562922877250882", "0.65e-16"),
    40: ("0.2625629228772508441", "0.2e-18"),
}
_TABLE2 = {
    14: ("0.262562922891", "0.24e-10"),
    18: ("0.26256292287739", "0.25e-12"),
}
# n -> (estimate, |estimate - reference|); flat truncation is 3n
_TABLE3 = {
    10: ("0.262562936", "0.13e-7"),
    18: ("0.2625629228786", "0.13e-11"),
    25: ("0.2625629228772537", "0.29e-14"),
}
_TABLE3_REFERENCE = "0.2625629228772508441"
# N -> (estimate, absolute tolerance)
_TABLE4 = {
    10: ("0.235584", "1e-6"),
    100: ("0.159338", "1e-5"),
}
# N -> (re, im, |error| vs the directly computed value 0.2357006)
_TABLE5 = {
    50: ("0.2356902", "0.50e-5", "0.12e-4"),
    150: ("0.2357024", "-0.25e-6", "0.1e-5"),
}
_TABLE5_REFERENCE = "0.2357006"
_LEASTTERM = ("0.26256292290", "0.23e-9")


@dataclass
class ReproRow:
    label: str
    computed: str
    expected: str
    passed: bool
    note: str = ""


def _ulp(printed: str) -> mp.mpf:
    """One unit in the last printed digit of a decimal string like
    '0.26256292301' or '0.50e-5'."""
    s = printed.strip().lower().lstrip("+-")
    if "e" in s:
        mant, expo = s.split("e")
        shift = int(expo)
    else:
        mant, shift = s, 0
    decimals = len(mant.split(".")[1]) if "." in mant else 0
    return mp.mpf(10) ** (shift - decimals)


def _within_ulp(value, printed: str) -> bool:
    return abs(value - mp.mpf(printed)) <= _ulp(printed) * (1 + mp.mpf(2) ** -30)


def _within_factor2(value, printed: str) -> bool:
    ref = mp.mpf(printed)
    return ref / 2 <= value <= ref * 2


def _fmt(x, digits=21) -> str:
    return mp.nstr(mp.mpf(x) if mp.im(mp.mpc(x)) == 0 else mp.mpc(x), digits)


def _psi_branch_rows(table, lam, prec,
                     envelope: GrowthEnvelope | None = None) -> list[ReproRow]:
    rows: list[ReproRow] = []
    n_top = max(table)
    f = psi_series(3 * (n_top + 2), prec)
    z = RamifiedPoint(12, 0)
    for N, (est_str, err_str) in sorted(table.items()):
        res = branch_sum(f, lam, z, N, envelope=envelope, prec=prec)
        rows.append(ReproRow(
            label=f"N={N} estimate", computed=_fmt(mp.re(res.estimate)),
            expected=est_str, passed=bool(_within_ulp(mp.re(res.estimate), est_str))))
        rows.append(ReproRow(
            label=f"N={N} error", computed=mp.nstr(res.heuristic_error, 3),
            expected=err_str, passed=bool(_within_factor2(res.heuristic_error, err_str)),
            note="factor-2 comparison"))
    return rows


def _run_table1(prec) -> list[ReproRow]:
    with working_precision(prec):
        lam = 2 / mp.log(2)  # the sup of the permitted homothety factors
    return _psi_branch_rows(_TABLE1, lam, prec)


def _run_table2(prec) -> list[ReproRow]:
    # lambda = 4 exceeds the permitted sup 2/ln 2: the run must warn and,
    # empirically, still reproduce the printed digits.  A and B below are
    # placeholders carrying the validity factor; the resulting bound column
    # is not graded (no concrete growth constants are known for psi).
    envelope = GrowthEnvelope(A=1, B=1, lam=PSI_LAMBDA_SUP, domain="ramified")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rows = _psi_branch_rows(_TABLE2, 4, prec, envelope=envelope)
    warned = any("exceeds the envelope" in str(w.message) for w in caught)
    rows.append(ReproRow("lambda warning emitted", str(warned), "True", warned))
    return rows


def _run_table3(prec) -> list[ReproRow]:
    with working_precision(prec):
        lam = 2 / mp.log(2)
    f = psi_series(3 * 25 + 2, prec)
    z = RamifiedPoint(12, 0)
    ref = mp.mpf(_TABLE3_REFERENCE)
    rows: list[ReproRow] = []
    for n, (est_str, err_str) in sorted(_TABLE3.items()):
        res = generalized_factorial_sum(f, lam, z, 3 * n, prec=prec)
        deviation = abs(res.estimate - ref)
        rows.append(ReproRow(f"n={n} (flat N={3*n}) estimate",
                             _fmt(mp.re(res.estimate)), est_str,
                             bool(_within_ulp(mp.re(res.estimate), est_str))))
        rows.append(ReproRow(f"n={n} deviation from reference",
                             mp.nstr(deviation, 3), err_str,
                             bool(_within_factor2(deviation, err_str)),
                             note="factor-2 comparison"))
    return rows


def _run_table4(prec) -> list[ReproRow]:
    f = example2_series(110, prec)
    z = RamifiedPoint(5, 0)
    rows: list[ReproRow] = []
    last = None
    for N, (est_str, tol_str) in sorted(_TABLE4.items()):
        res = generalized_factorial_sum(f, 1, z, N, prec=prec)
        ok = abs(mp.re(res.estimate) - mp.mpf(est_str)) <= mp.mpf(tol_str)
        rows.append(ReproRow(f"N={N} estimate", _fmt(mp.re(res.estimate)),
                             f"{est_str} +- {tol_str}", bool(ok)))
        last = res
    rows.append(ReproRow("divergence diagnostic at N=100", str(bool(last.diverging)),
                         "True", bool(last.diverging)))
    return rows


def _run_table5(prec) -> list[ReproRow]:
    f = example2_series(160, prec)
    z = RamifiedPoint(5, 0)
    ref = mp.mpf(_TABLE5_REFERENCE)
    rows: list[ReproRow] = []
    with working_precision(prec):
        theta = mp.pi / 3
        for N, (re_str, im_str, err_str) in sorted(_TABLE5.items()):
            res = rotated_generalized_sum(f, theta, as_mpf("0.6"), z, N, prec=prec)
            ok_re = _within_ulp(mp.re(res.estimate), re_str)
            ok_im = _within_ulp(mp.im(res.estimate), im_str)
            dev = abs(res.estimate - ref)
            ok_dev = dev <= 2 * mp.mpf(err_str)
            rows.append(ReproRow(f"N={N} estimate (re)", _fmt(mp.re(res.estimate)),
                                 re_str, bool(ok_re)))
            rows.append(ReproRow(f"N={N} estimate (im)", mp.nstr(mp.im(res.estimate), 6),
                                 im_str, bool(ok_im)))
            rows.append(ReproRow(f"N={N} |estimate - {_TABLE5_REFERENCE}|",
                                 mp.nstr(dev, 3), f"<= 2 x {err_str}", bool(ok_dev)))
    return rows


def _run_fig2(prec) -> list[ReproRow]:
    with working_precision(prec):
        z = mp.mpc(10, 10)
        rows_tbl = bound_comparison_table(1, 1, z, 30, prec)
        col1 = [float(r.log_r_as_ln2) for r in rows_tbl]
        col2 = [float(r.log_r_as_halfpi) for r in rows_tbl]
        col3 = [float(r.log_r_fact) for r in rows_tbl]
    argmin1 = col1.index(min(col1))
    argmin2 = col2.index(min(col2))
    decreasing = all(col3[n + 1] < col3[n] for n in range(5, 30))
    crossover = col3[30] < col1[30]
    return [
        ReproRow("strip ln2 curve argmin", str(argmin1), "9 or 10", argmin1 in (9, 10)),
        ReproRow("strip pi/2 curve argmin", str(argmin2), "21..23", argmin2 in (21, 22, 23)),
        ReproRow("factorial bound strictly decreasing for n >= 5",
                 str(decreasing), "True", decreasing),
        ReproRow("factorial bound below ln2 strip bound at n = 30",
                 f"{col3[30]:.3f} < {col1[30]:.3f}", "True", crossover),
    ]


def _run_leastterm(prec) -> list[ReproRow]:
    f = psi_series(78, prec)
    z = RamifiedPoint(12, 0)
    res = least_term_sum_ramified(f, 2, z, prec=prec)
    est_str, err_str = _LEASTTERM
    ok_est = abs(mp.re(res.estimate) - mp.mpf(est_str)) <= mp.mpf("1e-11")
    ok_err = _within_factor2(res.heuristic_error, err_str)
    best = mp.mpf(_TABLE3_REFERENCE)
    ok_best = abs(res.estimate - best) <= mp.mpf("2.3e-10")
    return [
        ReproRow("n=24 partial sum", _fmt(mp.re(res.estimate)),
                 f"{est_str} +- 1e-11", bool(ok_est)),
        ReproRow("error estimate", mp.nstr(res.heuristic_error, 3), err_str,
                 bool(ok_err), note="factor-2 comparison"),
        ReproRow("distance to best branch value", mp.nstr(abs(res.estimate - best), 3),
                 "<= 2.3e-10", bool(ok_best)),
    ]


_RUNNERS = {
    "table1": _run_table1,
    "table2": _run_table2,
    "table3": _run_table3,
    "table4": _run_table4,
    "table5": _run_table5,
    "fig2": _run_fig2,
    "leastterm-psi": _run_leastterm,
}


def run_target(name: str, prec: PrecisionConfig | None = None) -> list[ReproRow]:
    if name not in _RUNNERS:
        raise DomainError(f"unknown reproduction target {name!r}; choose from {TARGETS}")
    # comparisons and rendering must run at the target precision too:
    # parsing an 18-digit reference value at 53 bits would already eat the
    # tolerance it is supposed to grade.
    with working_precision(prec):
        return _RUNNERS[name](prec)
