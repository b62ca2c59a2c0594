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
import io
import json
import sys
import warnings

import click
import mpmath as mp
from click.core import ParameterSource

from . import reproduce as repro
from .classical import SummationResult, bound_comparison_table
from .errors import BorelSumError, DomainError
from .numerics import PrecisionConfig, working_precision
from .oracle import BUILTIN_EVALUATORS, BUILTIN_SERIES, PSI_LAMBDA_SUP
from .ramified import summate
from .series import FormalSeries, GrowthEnvelope, RamifiedPoint, load_series

# the flags each method reads beyond those every method reads (--builtin, the
# point, the precision and the output); given with another method, each is a
# usage error.  Least-term picks its own truncation index, so reads no N.
_SERIES_FLAGS = ("--series", "--depth", "--N", "--N-range")
METHOD_FLAGS = {"least-term": ("--r", "--A", "--B", "--series", "--depth"),
                "factorial": ("--lambda", "--A", "--B", *_SERIES_FLAGS),
                "generalized": ("--lambda", "--theta", *_SERIES_FLAGS),
                "branch": ("--lambda", "--A", "--B", *_SERIES_FLAGS),
                "oracle": ("--theta", "--tol")}
METHODS = tuple(METHOD_FLAGS)

# the fixed csv columns; json prints every record whole, text every field
SUM_COLUMNS = ("N", "estimate_re", "estimate_im", "heuristic_error", "rigorous_bound")
BOUND_COLUMNS = ("n", "log10_r_as_ln2", "log10_r_as_halfpi", "log10_r_fact")


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


def _envelope_from_flags(A, B, lam_sup) -> GrowthEnvelope | None:
    if A is None and B is None:
        return None
    if A is None or B is None:
        raise click.UsageError("--A and --B must be given together")
    # without a known validity factor the lambda warning never fires
    return GrowthEnvelope(A=A, B=B, lam=lam_sup or float("inf"))


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


def _flatten(rec: dict) -> dict:
    """One level of nesting folded into the keys: estimate.re -> estimate_re."""
    flat = {}
    for key, value in rec.items():
        if isinstance(value, dict):
            flat.update({f"{key}_{k}": v for k, v in value.items()})
        else:
            flat[key] = value
    return flat


def _cell(value) -> str:
    if value is None:
        return ""
    return value if isinstance(value, str) else json.dumps(value)


def _render(records: list[dict], columns, fmt: str) -> str:
    """json: every record whole; csv: the fixed ``columns``; text: every
    field of the records, one aligned row each under a header."""
    if fmt == "json":
        return json.dumps(records, indent=1)
    rows = [_flatten(rec) for rec in records]
    if fmt == "text":
        columns = list(dict.fromkeys(key for row in rows for key in row))
    table = [list(columns)] + [[_cell(row.get(c)) for c in columns] for row in rows]
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(table)
        return buf.getvalue()
    widths = [max(map(len, column)) for column in zip(*table)]
    return "".join("  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip() + "\n"
                   for line in table)


def _emit(text: str, out) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise click.UsageError(f"cannot write --out file: {exc}")
    else:
        click.echo(text, nl=not text.endswith("\n"))


def _parse_range(spec_str: str) -> list[int] | range:
    """Either comma-separated indices '10,14,18' or 'start:stop:step', the
    stop included either way; a range stays lazy, however far its stop."""
    try:
        if ":" in spec_str:
            parts = [int(p) for p in spec_str.split(":")]
            start, stop, step = parts if len(parts) == 3 else (*parts, 1)
            Ns = range(start, stop + (1 if step > 0 else -1), step)
        else:
            Ns = [int(p) for p in spec_str.split(",")]
    except ValueError:
        raise click.UsageError(f"cannot parse N range {spec_str!r}")
    if not Ns:
        raise click.UsageError(f"N range {spec_str!r} is empty")
    return Ns


_precision_bits = click.option("--precision-bits", type=click.IntRange(min=53), default=256)
_format = click.option("--format", "fmt", type=click.Choice(["json", "csv", "text"]),
                       default="text")
_out = click.option("--out", type=click.Path(), default=None, help="write output to a file")

_common = [
    click.option("--series", type=click.Path(), default=None,
                 help="JSON series file {m, coefficients}"),
    click.option("--builtin", type=str, default=None,
                 help=f"built-in series ({', '.join(BUILTIN_SERIES)}) or oracle "
                      f"evaluator ({', '.join(BUILTIN_EVALUATORS)})"),
    click.option("--depth", type=int, default=160,
                 help="coefficient depth for built-in series"),
    click.option("--method", type=click.Choice(METHODS), required=True),
    click.option("--lambda", "lam", type=float, default=1.0,
                 help="homothety factor of the factorial expansion"),
    click.option("--theta", type=float, default=0.0, help="summation direction"),
    click.option("--z-mod", type=float, required=True, help="|z|"),
    click.option("--z-arg", type=float, default=0.0,
                 help="arg z, unreduced (covers all sheets)"),
    click.option("--A", "A", type=float, default=None,
                 help="envelope constant A on the method's domain: the --r strip for "
                      "least-term (largest branch A when m > 1), else the lambda-region"),
    click.option("--B", "B", type=float, default=None, help="envelope growth rate B"),
    click.option("--r", "r", type=float, default=None, help="strip half-width"),
    _precision_bits,
    click.option("--tol", type=float, default=None, help="oracle quadrature tolerance"),
    _format,
    _out,
]


def _with_common(fn):
    for opt in reversed(_common):
        fn = opt(fn)
    return fn


def _sum_rows(Ns, series, builtin, depth, method, lam, theta, z_mod, z_arg,
              A, B, r, precision_bits, tol, fmt, out) -> None:
    """The body of ``sum`` and ``table``: one record per truncation index."""
    ctx = click.get_current_context()
    given = [p.opts[0] for p in ctx.command.params
             if ctx.get_parameter_source(p.name) is ParameterSource.COMMANDLINE]
    others = set().union(*METHOD_FLAGS.values()) - set(METHOD_FLAGS[method])
    unread = [flag for flag in given if flag in others]
    if unread:
        raise click.UsageError(f"--method {method} does not read {', '.join(unread)}; "
                               f"it reads {', '.join(METHOD_FLAGS[method])}")
    if "--series" in given and "--depth" in given:
        raise click.UsageError("a --series file does not read --depth; it sizes a --builtin series")
    prec = PrecisionConfig(precision_bits)
    z = RamifiedPoint(z_mod, z_arg)
    f = _load_input(series, builtin, depth, prec) if "--series" in METHOD_FLAGS[method] else None
    envelope = _envelope_from_flags(A, B, PSI_LAMBDA_SUP if builtin == "psi" else None)
    if method == "least-term" and r is None:
        raise click.UsageError("--r is required for the least-term method")
    if method == "oracle" and builtin not in BUILTIN_EVALUATORS:
        raise click.UsageError(
            f"--method oracle needs --builtin out of {sorted(BUILTIN_EVALUATORS)}")
    digits = int(prec.mantissa_bits * 0.30103) + 2
    records = [_result_record(summate(f, method, z, N, lam=lam, theta=theta, envelope=envelope,
                                      r=r, evaluator=BUILTIN_EVALUATORS.get(builtin),
                                      tol=tol, prec=prec), digits)
               for N in Ns]
    _emit(_render(records, SUM_COLUMNS, fmt), out)


@click.group()
def cli():
    """Borel summation of Gevrey-1 power series by factorial series."""


@cli.command("sum")
@_with_common
@click.option("--N", "N", type=int, default=20, help="truncation index")
def cmd_sum(N, **opts):
    """Evaluate one summation and print the result."""
    _sum_rows([N], **opts)


@cli.command("table")
@_with_common
@click.option("--N-range", "n_range", type=str, required=True,
              help="comma list '10,14,18' or 'start:stop:step'")
def cmd_table(n_range, **opts):
    """One row per truncation index, deterministic order."""
    _sum_rows(_parse_range(n_range), **opts)


@cli.command("compare-bounds")
@click.option("--A", "A", type=float, default=1.0)
@click.option("--B", "B", type=float, default=1.0)
@click.option("--z-mod", type=click.FloatRange(min=0, min_open=True), default=None,
              help="|z| (default |10+10i|)")
@click.option("--z-arg", type=float, default=None, help="arg z (default pi/4)")
@click.option("--n-max", type=click.IntRange(min=0), default=30)
@_precision_bits
@_format
@_out
def cmd_compare_bounds(A, B, z_mod, z_arg, n_max, precision_bits, fmt, out):
    """Tabulate log10 of the two strip bounds and the factorial bound."""
    prec = PrecisionConfig(precision_bits)
    with working_precision(prec):
        z = RamifiedPoint(abs(mp.mpc(10, 10)) if z_mod is None else z_mod,
                          mp.pi / 4 if z_arg is None else z_arg)
        rows = bound_comparison_table(A, B, z, n_max, prec)
    records = [{"n": row.n,
                "log10_r_as_ln2": mp.nstr(row.log_r_as_ln2, 10),
                "log10_r_as_halfpi": mp.nstr(row.log_r_as_halfpi, 10),
                "log10_r_fact": mp.nstr(row.log_r_fact, 10)} for row in rows]
    _emit(_render(records, BOUND_COLUMNS, fmt), out)


@cli.command("reproduce")
@click.argument("target", type=click.Choice(list(repro.TARGETS) + ["all"]))
@_precision_bits
@_out
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
    # a library warning is one line, like an error, not a source excerpt
    warnings.showwarning = lambda message, *_: click.echo(f"warning: {message}", err=True)
    try:
        cli(args=argv, standalone_mode=False)
        return 0
    except click.ClickException as exc:
        exc.show()
        # click's usage errors carry exit code 2, which here means a domain error
        sys.exit(1 if exc.exit_code == 2 else exc.exit_code)
    except click.exceptions.Abort:
        sys.exit(1)
    except BorelSumError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)


if __name__ == "__main__":
    main()
