"""Command-line front end.

Commands
--------
sum             one evaluation of a series by a chosen method
table           sweep over a range of truncation indices
compare-bounds  the three-curve remainder-bound comparison table
reproduce       re-run stored reference configurations and grade them

Exit codes: 0 success, 1 usage/parse error, 2 domain error,
3 reproduction failure.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import sys

import click
import mpmath as mp

from . import reproduce as repro
from .classical import (SummationResult, bound_comparison_table,
                        factorial_expansion, factorial_series_sum)
from .errors import BorelSumError, DomainError
from .numerics import PrecisionConfig, as_mpf, working_precision
from .oracle import (BUILTIN_EVALUATORS, BUILTIN_SERIES, PSI_LAMBDA_SUP,
                     laplace_quadrature)
from .ramified import (branch_sum, generalized_factorial_sum,
                       least_term_sum_ramified, r_as_ramified,
                       rotated_generalized_sum)
from .series import FormalSeries, GrowthEnvelope, RamifiedPoint, load_series

METHODS = ("least-term", "factorial", "generalized", "branch", "oracle")


class ReproductionFailure(click.ClickException):
    exit_code = 3


def _load_input(series_path, builtin, depth, prec) -> FormalSeries:
    if (series_path is None) == (builtin is None):
        raise click.UsageError("provide exactly one of --series / --builtin")
    if builtin is not None:
        if builtin not in BUILTIN_SERIES:
            raise click.UsageError(
                f"unknown builtin {builtin!r}; choose from {sorted(BUILTIN_SERIES)}")
        return BUILTIN_SERIES[builtin](depth, prec)
    try:
        return load_series(series_path, prec)
    except OSError as exc:
        raise click.UsageError(f"cannot read series file: {exc}")
    except DomainError as exc:
        raise click.UsageError(str(exc))


def _envelope_from_flags(A, B, r, lam_sup) -> GrowthEnvelope | None:
    if A is None and B is None:
        return None
    if A is None or B is None:
        raise click.UsageError("--A and --B must be given together")
    if r is not None:
        return GrowthEnvelope(A=A, B=B, r=r, domain="strip")
    # without a known validity factor the lambda warning never fires
    return GrowthEnvelope(A=A, B=B, lam=lam_sup or float("inf"), domain="region")


def _evaluate(method, f, builtin, lam, theta, z, N, r, C, envelope, tol, prec) -> SummationResult:
    if method == "least-term":
        if r is None:
            raise click.UsageError("--r is required for the least-term method")
        res = least_term_sum_ramified(f, r, z, prec=prec)
        if C is not None and envelope is not None:
            rig = r_as_ramified(r, C, envelope.B, res.N // f.m, z, f.m, prec)
            res = dataclasses.replace(res, rigorous_bound=rig)
        return res
    if method == "factorial":
        if f.m != 1:
            raise DomainError("the factorial method needs an m = 1 series; "
                              "use branch or generalized for m > 1")
        expansion = factorial_expansion(f, lam, N + 1, prec)
        zdot = z.projection(prec)
        return factorial_series_sum(expansion, zdot, N, envelope=envelope, prec=prec)
    if method == "branch":
        return branch_sum(f, lam, z, N, envelope=envelope, prec=prec)
    if method == "generalized":
        if theta:
            return rotated_generalized_sum(f, theta, lam, z, N, envelope=envelope, prec=prec)
        return generalized_factorial_sum(f, lam, z, N, envelope=envelope, prec=prec)
    if method == "oracle":
        if builtin is None or builtin not in BUILTIN_EVALUATORS:
            raise click.UsageError(
                f"--method oracle needs --builtin out of {sorted(BUILTIN_EVALUATORS)}")
        g = BUILTIN_EVALUATORS[builtin]
        val = laplace_quadrature(g, theta or 0.0, z.projection(prec), tol, prec)
        return SummationResult(estimate=val, N=0, method="oracle")
    raise click.UsageError(f"unknown method {method!r}; choose from {METHODS}")


def _result_record(res: SummationResult, digits: int) -> dict:
    rec = {
        "N": res.N,
        "estimate": {"re": mp.nstr(mp.re(res.estimate), digits),
                     "im": mp.nstr(mp.im(res.estimate), digits)},
        "heuristic_error": (mp.nstr(res.heuristic_error, 8)
                            if res.heuristic_error is not None else None),
        "method": res.method,
    }
    if res.rigorous_bound is not None:
        rec["rigorous_bound"] = mp.nstr(res.rigorous_bound, 8)
    if res.diverging is not None:
        rec["diverging"] = bool(res.diverging)
    return rec


def _render_results(results: list[SummationResult], fmt: str, prec: PrecisionConfig,
                    m: int | None = None) -> str:
    digits = int(prec.mantissa_bits * 0.30103) + 2
    if fmt == "json":
        return json.dumps([_result_record(r, digits) for r in results], indent=1)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["N", "estimate_re", "estimate_im",
                         "heuristic_error", "rigorous_bound"])
        for r in results:
            writer.writerow([
                r.N,
                mp.nstr(mp.re(r.estimate), digits),
                mp.nstr(mp.im(r.estimate), digits),
                mp.nstr(r.heuristic_error, 8) if r.heuristic_error is not None else "",
                mp.nstr(r.rigorous_bound, 8) if r.rigorous_bound is not None else "",
            ])
        return buf.getvalue()
    lines = []
    for r in results:
        parts = [f"N={r.N}", f"estimate = {mp.nstr(r.estimate, min(digits, 25))}",
                 f"method = {r.method}"]
        # flat index vs per-branch depth: report both for ramified generalized sums
        if r.method.startswith("generalized") and m and m > 1:
            parts.append(f"(flat index; per-branch depth ~ {r.N // m})")
        if r.heuristic_error is not None:
            parts.append(f"error ~ {mp.nstr(r.heuristic_error, 3)}")
        if r.rigorous_bound is not None:
            parts.append(f"bound <= {mp.nstr(r.rigorous_bound, 3)}")
        if r.diverging:
            parts.append("DIVERGING")
        lines.append("  ".join(parts))
    return "\n".join(lines) + "\n"


def _emit(text: str, out) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=not text.endswith("\n"))


def _parse_range(spec_str: str) -> list[int]:
    """Either comma-separated indices '10,14,18' or 'start:stop:step'."""
    try:
        if ":" in spec_str:
            parts = [int(p) for p in spec_str.split(":")]
            start, stop = parts[0], parts[1]
            step = parts[2] if len(parts) > 2 else 1
            return list(range(start, stop + 1, step))
        return [int(p) for p in spec_str.split(",")]
    except ValueError:
        raise click.UsageError(f"cannot parse N range {spec_str!r}")


_common = [
    click.option("--series", type=click.Path(), default=None,
                 help="JSON series file {m, coefficients}"),
    click.option("--builtin", type=str, default=None,
                 help="built-in series/evaluator: euler, example2, psi (series), const1 (oracle)"),
    click.option("--depth", type=int, default=160,
                 help="coefficient depth for built-in series"),
    click.option("--method", type=click.Choice(METHODS), required=True),
    click.option("--lambda", "lam", type=float, default=1.0,
                 help="homothety factor of the factorial expansion"),
    click.option("--theta", type=float, default=0.0, help="summation direction"),
    click.option("--z-mod", type=float, required=True, help="|z|"),
    click.option("--z-arg", type=float, default=0.0,
                 help="arg z, unreduced (covers all sheets)"),
    click.option("--A", "A", type=float, default=None, help="envelope constant A"),
    click.option("--B", "B", type=float, default=None, help="envelope growth rate B"),
    click.option("--r", "r", type=float, default=None, help="strip half-width"),
    click.option("--C", "C", type=float, default=None,
                 help="ramified least-term constant (max of the branch A's)"),
    click.option("--precision-bits", type=click.IntRange(min=53), default=256),
    click.option("--tol", type=float, default=None, help="oracle quadrature tolerance"),
    click.option("--format", "fmt", type=click.Choice(["json", "csv", "text"]),
                 default="text"),
    click.option("--out", type=click.Path(), default=None, help="write output to a file"),
]


def _with_common(fn):
    for opt in reversed(_common):
        fn = opt(fn)
    return fn


@click.group()
def cli():
    """Borel summation of Gevrey-1 power series by factorial series."""


@cli.command("sum")
@_with_common
@click.option("--N", "N", type=int, default=20, help="truncation index")
def cmd_sum(series, builtin, depth, method, lam, theta, z_mod, z_arg,
            A, B, r, C, precision_bits, tol, fmt, out, N):
    """Evaluate one summation and print the result."""
    prec = PrecisionConfig(precision_bits)
    z = RamifiedPoint(z_mod, z_arg)
    f = None
    if method != "oracle":
        f = _load_input(series, builtin, depth, prec)
    envelope = _envelope_from_flags(A, B, r, PSI_LAMBDA_SUP if builtin == "psi" else None)
    res = _evaluate(method, f, builtin, lam, theta, z, N, r, C, envelope, tol, prec)
    _emit(_render_results([res], fmt, prec, f.m if f else None), out)


@cli.command("table")
@_with_common
@click.option("--N-range", "n_range", type=str, required=True,
              help="comma list '10,14,18' or 'start:stop:step'")
def cmd_table(series, builtin, depth, method, lam, theta, z_mod, z_arg,
              A, B, r, C, precision_bits, tol, fmt, out, n_range):
    """One row per truncation index, deterministic order."""
    prec = PrecisionConfig(precision_bits)
    z = RamifiedPoint(z_mod, z_arg)
    f = None
    if method != "oracle":
        f = _load_input(series, builtin, depth, prec)
    envelope = _envelope_from_flags(A, B, r, PSI_LAMBDA_SUP if builtin == "psi" else None)
    results = [_evaluate(method, f, builtin, lam, theta, z, N, r, C, envelope, tol, prec)
               for N in _parse_range(n_range)]
    _emit(_render_results(results, fmt, prec, f.m if f else None), out)


@cli.command("compare-bounds")
@click.option("--A", "A", type=float, default=1.0)
@click.option("--B", "B", type=float, default=1.0)
@click.option("--z-mod", type=click.FloatRange(min=0, min_open=True), default=None,
              help="|z| (default |10+10i|)")
@click.option("--z-arg", type=float, default=None, help="arg z (default pi/4)")
@click.option("--n-max", type=int, default=30)
@click.option("--precision-bits", type=click.IntRange(min=53), default=256)
@click.option("--format", "fmt", type=click.Choice(["json", "csv", "text"]), default="text")
@click.option("--out", type=click.Path(), default=None)
def cmd_compare_bounds(A, B, z_mod, z_arg, n_max, precision_bits, fmt, out):
    """Tabulate log10 of the two strip bounds and the factorial bound."""
    prec = PrecisionConfig(precision_bits)
    with working_precision(prec):
        if z_mod is None and z_arg is None:
            z = mp.mpc(10, 10)
        else:
            mod = abs(mp.mpc(10, 10)) if z_mod is None else as_mpf(z_mod)
            arg = mp.pi / 4 if z_arg is None else as_mpf(z_arg)
            z = mod * mp.exp(1j * arg)
        rows = bound_comparison_table(A, B, z, n_max, prec)
    if fmt == "json":
        text = json.dumps([{"n": r.n,
                            "log10_r_as_ln2": mp.nstr(r.log_r_as_ln2, 10),
                            "log10_r_as_halfpi": mp.nstr(r.log_r_as_halfpi, 10),
                            "log10_r_fact": mp.nstr(r.log_r_fact, 10)} for r in rows],
                          indent=1)
    elif fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["n", "log10_r_as_ln2", "log10_r_as_halfpi", "log10_r_fact"])
        for row in rows:
            w.writerow([row.n, mp.nstr(row.log_r_as_ln2, 10),
                        mp.nstr(row.log_r_as_halfpi, 10), mp.nstr(row.log_r_fact, 10)])
        text = buf.getvalue()
    else:
        lines = [f"{'n':>3}  {'log10 R_as(ln2)':>16}  {'log10 R_as(pi/2)':>17}  {'log10 R_fact':>13}"]
        for row in rows:
            lines.append(f"{row.n:>3}  {mp.nstr(row.log_r_as_ln2, 8):>16}  "
                         f"{mp.nstr(row.log_r_as_halfpi, 8):>17}  {mp.nstr(row.log_r_fact, 8):>13}")
        text = "\n".join(lines) + "\n"
    _emit(text, out)


@cli.command("reproduce")
@click.argument("target", type=click.Choice(list(repro.TARGETS) + ["all"]))
@click.option("--precision-bits", type=click.IntRange(min=53), default=256)
@click.option("--out", type=click.Path(), default=None)
def cmd_reproduce(target, precision_bits, out):
    """Re-run a stored reference configuration and grade each row."""
    prec = PrecisionConfig(precision_bits)
    targets = list(repro.TARGETS) if target == "all" else [target]
    lines = []
    all_ok = True
    for name in targets:
        rows = repro.run_target(name, prec)
        lines.append(f"== {name} ==")
        for row in rows:
            status = "PASS" if row.passed else "FAIL"
            note = f"  [{row.note}]" if row.note else ""
            lines.append(f"{status}  {row.label}: computed {row.computed}, "
                         f"expected {row.expected}{note}")
            all_ok = all_ok and row.passed
    text = "\n".join(lines) + "\n"
    _emit(text, out)
    if not all_ok:
        raise ReproductionFailure("one or more reproduction rows FAILED")


def main(argv=None):
    try:
        cli(args=argv, standalone_mode=False)
        return 0
    except click.UsageError as exc:
        exc.show()
        sys.exit(1)
    except ReproductionFailure as exc:
        click.echo(f"error: {exc.message}", err=True)
        sys.exit(3)
    except click.ClickException as exc:
        exc.show()
        sys.exit(exc.exit_code if exc.exit_code != 2 else 1)
    except click.exceptions.Abort:
        sys.exit(1)
    except BorelSumError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)


if __name__ == "__main__":
    main()
