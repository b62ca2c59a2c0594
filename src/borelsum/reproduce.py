"""Canned reference reproductions with stored expected values.

Each target re-runs one stored reference configuration and grades the result
against the stored digits: estimates must land within one unit in the last
stored digit (or within a stated absolute tolerance), error columns within a
factor of two, distances at most a bound, and diagnostics must be set.  Each
rule has one row builder.  Stored digits are kept verbatim as strings;
tolerances derive from the strings themselves.

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

from .classical import bound_comparison_table, least_term_index
from .errors import DomainError
from .numerics import PrecisionConfig, as_mpf, working_precision
from .oracle import BUILTIN_SERIES, PSI_LAMBDA_SUP
from .ramified import summate
from .series import FormalSeries, GrowthEnvelope, RamifiedPoint

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
    mant, _, expo = printed.strip().lower().lstrip("+-").partition("e")
    return mp.mpf(10) ** (int(expo or 0) - len(mant.partition(".")[2]))


def _within_ulp(value, printed: str) -> bool:
    return abs(value - mp.mpf(printed)) <= _ulp(printed) * (1 + mp.mpf(2) ** -30)


# one builder per grading rule: its test, its printed form and its note

def _ulp_row(label: str, value, printed: str, digits: int = 21) -> ReproRow:
    """Within one unit in the last printed digit."""
    return ReproRow(label, mp.nstr(value, digits), printed, bool(_within_ulp(value, printed)))


def _factor2_row(label: str, value, printed: str) -> ReproRow:
    """Within a factor of two of an error column."""
    ref = mp.mpf(printed)
    return ReproRow(label, mp.nstr(value, 3), printed, bool(ref / 2 <= value <= ref * 2),
                    note="factor-2 comparison")


def _tolerance_row(label: str, value, printed: str, tol: str) -> ReproRow:
    """Within an absolute tolerance of a printed value."""
    return ReproRow(label, mp.nstr(value, 21), f"{printed} +- {tol}",
                    bool(abs(value - mp.mpf(printed)) <= mp.mpf(tol)))


def _bound_row(label: str, value, bound, shown: str | None = None) -> ReproRow:
    """At most a bound, shown as ``shown`` when it is written as a product."""
    return ReproRow(label, mp.nstr(value, 3), f"<= {shown or bound}",
                    bool(value <= mp.mpf(bound)))


def _flag_row(label: str, flag) -> ReproRow:
    """A diagnostic expected to be set."""
    return ReproRow(label, str(bool(flag)), "True", bool(flag))


_BUILT: dict[tuple[str, PrecisionConfig], list[FormalSeries]] = {}


def _builtin(name: str, depth: int, prec: PrecisionConfig) -> FormalSeries:
    """psi or example2 storing at least a_0..a_depth: the first one built for this
    name and precision deep enough, else a new one, kept with the others, so a
    target rereads its series and rows.  Call inside ``working_precision``."""
    built = _BUILT.setdefault((name, prec), [])
    if all(f.n_max < depth for f in built):
        built.append(BUILTIN_SERIES[name](depth, prec))
    return next(f for f in built if f.n_max >= depth)


def _psi_branch_rows(table, lam, prec,
                     envelope: GrowthEnvelope | None = None) -> list[ReproRow]:
    rows: list[ReproRow] = []
    f = _builtin("psi", 3 * (max(table) + 2), prec)  # a branch sum at N reads a_{3(N+2)}
    z = RamifiedPoint(12, 0)
    for N, (est_str, err_str) in sorted(table.items()):
        res = summate(f, "branch", z, N, lam=lam, envelope=envelope, prec=prec)
        rows += [_ulp_row(f"N={N} estimate", mp.re(res.estimate), est_str),
                 _factor2_row(f"N={N} error", res.heuristic_error, err_str)]
    return rows


def _run_table1(prec) -> list[ReproRow]:
    lam = 2 / mp.log(2)  # the sup of the permitted homothety factors
    return _psi_branch_rows(_TABLE1, lam, prec)


def _run_table2(prec) -> list[ReproRow]:
    # lambda = 4 exceeds the permitted sup 2/ln 2: the run must warn and,
    # empirically, still reproduce the printed digits.  A and B below are
    # placeholders carrying the validity factor; the resulting bound column
    # is not graded (no concrete growth constants are known for psi).
    envelope = GrowthEnvelope(A=1, B=1, lam=PSI_LAMBDA_SUP)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rows = _psi_branch_rows(_TABLE2, 4, prec, envelope=envelope)
    warned = any("exceeds the envelope" in str(w.message) for w in caught)
    return rows + [_flag_row("lambda warning emitted", warned)]


def _run_table3(prec) -> list[ReproRow]:
    lam = 2 / mp.log(2)
    f = _builtin("psi", 3 * max(_TABLE3) + 1, prec)  # a generalized sum at N reads a_{N+1}
    z = RamifiedPoint(12, 0)
    ref = mp.mpf(_TABLE3_REFERENCE)
    rows: list[ReproRow] = []
    for n, (est_str, err_str) in sorted(_TABLE3.items()):
        res = summate(f, "generalized", z, 3 * n, lam=lam, prec=prec)
        rows += [_ulp_row(f"n={n} (flat N={3*n}) estimate", mp.re(res.estimate), est_str),
                 _factor2_row(f"n={n} deviation from reference", abs(res.estimate - ref),
                              err_str)]
    return rows


def _run_table4(prec) -> list[ReproRow]:
    f = _builtin("example2", max(_TABLE4) + 1, prec)
    z = RamifiedPoint(5, 0)
    rows: list[ReproRow] = []
    for N, (est_str, tol_str) in sorted(_TABLE4.items()):
        res = summate(f, "generalized", z, N, prec=prec)
        rows.append(_tolerance_row(f"N={N} estimate", mp.re(res.estimate), est_str, tol_str))
    return rows + [_flag_row("divergence diagnostic at N=100", res.diverging)]


def _run_table5(prec) -> list[ReproRow]:
    f = _builtin("example2", max(_TABLE5) + 1, prec)
    z = RamifiedPoint(5, 0)
    ref = mp.mpf(_TABLE5_REFERENCE)
    rows: list[ReproRow] = []
    for N, (re_str, im_str, err_str) in sorted(_TABLE5.items()):
        res = summate(f, "generalized", z, N, lam=as_mpf("0.6"), theta=mp.pi / 3, prec=prec)
        rows += [_ulp_row(f"N={N} estimate (re)", mp.re(res.estimate), re_str),
                 _ulp_row(f"N={N} estimate (im)", mp.im(res.estimate), im_str, 6),
                 _bound_row(f"N={N} |estimate - {_TABLE5_REFERENCE}|",
                            abs(res.estimate - ref), 2 * mp.mpf(err_str), f"2 x {err_str}")]
    return rows


def _run_fig2(prec) -> list[ReproRow]:
    rows_tbl = bound_comparison_table(1, 1, mp.mpc(10, 10), 30, prec)
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
        _flag_row("factorial bound strictly decreasing for n >= 5", decreasing),
        ReproRow("factorial bound below ln2 strip bound at n = 30",
                 f"{col3[30]:.3f} < {col1[30]:.3f}", "True", crossover),
    ]


def _run_leastterm(prec) -> list[ReproRow]:
    z = RamifiedPoint(12, 0)
    f = _builtin("psi", 3 * least_term_index(2, z) + 3, prec)  # the sum reads a_{mn + m}
    res = summate(f, "least-term", z, r=2, prec=prec)
    est_str, err_str = _LEASTTERM
    best = mp.mpf(_TABLE3_REFERENCE)
    return [_tolerance_row("n=24 partial sum", mp.re(res.estimate), est_str, "1e-11"),
            _factor2_row("error estimate", res.heuristic_error, err_str),
            _bound_row("distance to best branch value", abs(res.estimate - best), "2.3e-10")]


_RUNNERS = {
    "table1": _run_table1,
    "table2": _run_table2,
    "table3": _run_table3,
    "table4": _run_table4,
    "table5": _run_table5,
    "fig2": _run_fig2,
    "leastterm-psi": _run_leastterm,
}
TARGETS = tuple(_RUNNERS)


def run_target(name: str, prec: PrecisionConfig | None = None) -> list[ReproRow]:
    if name not in _RUNNERS:
        raise DomainError(f"unknown reproduction target {name!r}; choose from {TARGETS}")
    # comparisons and rendering must run at the target precision too:
    # parsing an 18-digit reference value at 53 bits would already eat the
    # tolerance it is supposed to grade.
    with working_precision(prec) as cfg:
        return _RUNNERS[name](cfg)
