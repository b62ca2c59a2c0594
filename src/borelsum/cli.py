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

import argparse
import csv
import io
import json
import re
import sys
import warnings

import mpmath as mp

from . import reproduce as repro
from .classical import SummationResult, bound_comparison_table
from .errors import BorelSumError, DomainError
from .numerics import DEFAULT_BITS, MIN_BITS, PrecisionConfig, working_precision
from .oracle import BUILTIN_EVALUATORS, BUILTIN_SERIES, PSI_LAMBDA_SUP
from .ramified import summate
from .series import MAX_DEPTH, FormalSeries, GrowthEnvelope, RamifiedPoint, load_series

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


class UsageError(Exception):
    """A usage error found after parsing: exit 1, as for argparse's own."""


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error (2 is a domain error); each subcommand's too
    refuses an abbreviated flag and has --help but no -h.  Every flag is long,
    so a token with one dash (-0.25, -1e-3, -inf) is a value, never a flag."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, add_help=False, **kwargs)
        self.add_argument("--help", action="help", help="show this message and exit")
        self._negative_number_matcher = re.compile(r"-[^-]")

    def error(self, message):
        self.exit(1, f"{self.format_usage()}{self.prog}: error: {message}\n")


def _load_input(series_path, builtin, depth, prec) -> FormalSeries:
    if (series_path is None) == (builtin is None):
        raise UsageError("provide exactly one of --series / --builtin")
    if builtin is not None:
        if builtin not in BUILTIN_SERIES:
            raise UsageError(
                f"unknown builtin {builtin!r}; choose from {sorted(BUILTIN_SERIES)}")
        return BUILTIN_SERIES[builtin](depth, prec)
    try:
        return load_series(series_path, prec)
    except OSError as exc:
        raise UsageError(f"cannot read series file: {exc}")
    except DomainError as exc:
        raise UsageError(str(exc))


def _envelope_from_flags(A, B, lam_sup) -> GrowthEnvelope | None:
    if A is None and B is None:
        return None
    if A is None or B is None:
        raise UsageError("--A and --B must be given together")
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
            raise UsageError(f"cannot write --out file: {exc}")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


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
        raise UsageError(f"cannot parse N range {spec_str!r}")
    if not Ns:
        raise UsageError(f"N range {spec_str!r} is empty")
    return Ns


def _within(low=-float("inf"), high=float("inf"), cast=int, strict=False):
    """argparse type: ``cast`` of the text, at least ``low`` (over it if strict),
    then at most ``high``, the size limits below; nan passes."""
    def convert(text):
        if (value := cast(text)) < low or strict and value == low:
            raise argparse.ArgumentTypeError(f"{value} is not {'>' if strict else '>='} {low}")
        if value > high:
            raise argparse.ArgumentTypeError(f"{value} is over the limit {high}")
        return value
    convert.__name__ = cast.__name__  # argparse's "invalid int value" names it
    return convert


# the largest sizes a command accepts, so that each ends in bounded time and
# memory (README § Size limits gives the measured cost of the largest sums); a
# --depth reaches MAX_DEPTH, as a --series file does (``load_series``)
MAX_N_MAX, MAX_PRECISION_BITS = 1000, 4096

# (flag, default, argparse keywords)
_PRECISION = ("--precision-bits", DEFAULT_BITS, {"type": _within(MIN_BITS, MAX_PRECISION_BITS)})
_FORMAT = ("--format", "text", {"choices": ("json", "csv", "text")})
_OUT = ("--out", None, {"help": "write output to a file"})
_N = ("--N", 20, {"type": int, "help": "truncation index"})
_N_RANGE = ("--N-range", None, {"required": True,
                                "help": "comma list '10,14,18' or 'start:stop:step'"})
_COMMON = (
    ("--series", None, {"help": "JSON series file {m, coefficients}"}),
    ("--builtin", None, {"help": f"built-in series ({', '.join(BUILTIN_SERIES)}) or oracle "
                                 f"evaluator ({', '.join(BUILTIN_EVALUATORS)})"}),
    ("--depth", 160, {"type": _within(high=MAX_DEPTH),
                      "help": "coefficient depth for built-in series"}),
    ("--method", None, {"choices": METHODS, "required": True}),
    ("--lambda", 1.0, {"type": float, "help": "homothety factor of the factorial expansion"}),
    ("--theta", 0.0, {"type": float, "help": "summation direction"}),
    ("--z-mod", None, {"type": float, "required": True, "help": "|z|"}),
    ("--z-arg", 0.0, {"type": float, "help": "arg z, unreduced (covers all sheets)"}),
    ("--A", None, {"type": float, "help": "envelope constant A on the method's domain: the --r "
                   "strip for least-term (largest branch A when m > 1), else the lambda-region"}),
    ("--B", None, {"type": float, "help": "envelope growth rate B"}),
    ("--r", None, {"type": float, "help": "strip half-width"}),
    _PRECISION,
    ("--tol", None, {"type": float, "help": "oracle quadrature tolerance"}),
    _FORMAT,
    _OUT,
)


def _sum_rows(**given) -> None:
    """The body of ``sum`` and ``table``: one record per truncation index.
    ``given`` holds the flags on the command line and no default."""
    Ns = _parse_range(given["N_range"]) if "N_range" in given else None
    method = given["method"]
    keys = {flag: flag[2:].replace("-", "_") for flag, _, _ in (*_COMMON, _N, _N_RANGE)}
    flags = [flag for flag, key in keys.items() if key in given]
    others = set().union(*METHOD_FLAGS.values()) - set(METHOD_FLAGS[method])
    unread = [flag for flag in flags if flag in others]
    if unread:
        raise UsageError(f"--method {method} does not read {', '.join(unread)}; "
                         f"it reads {', '.join(METHOD_FLAGS[method])}")
    if "--series" in flags and "--depth" in flags:
        raise UsageError("a --series file does not read --depth; it sizes a --builtin series")
    opts = {**{keys[flag]: default for flag, default, _ in (*_COMMON, _N)}, **given}
    builtin, r = opts["builtin"], opts["r"]
    prec = PrecisionConfig(opts["precision_bits"])
    z = RamifiedPoint(opts["z_mod"], opts["z_arg"])
    f = (_load_input(opts["series"], builtin, opts["depth"], prec)
         if "--series" in METHOD_FLAGS[method] else None)
    envelope = _envelope_from_flags(opts["A"], opts["B"],
                                    PSI_LAMBDA_SUP if builtin == "psi" else None)
    if method == "least-term" and r is None:
        raise UsageError("--r is required for the least-term method")
    if method == "oracle" and builtin not in BUILTIN_EVALUATORS:
        raise UsageError(f"--method oracle needs --builtin out of {sorted(BUILTIN_EVALUATORS)}")
    digits = int(prec.mantissa_bits * 0.30103) + 2
    records = [_result_record(summate(f, method, z, N, lam=opts["lambda"], theta=opts["theta"],
                                      envelope=envelope, r=r,
                                      evaluator=BUILTIN_EVALUATORS.get(builtin),
                                      tol=opts["tol"], prec=prec), digits)
               for N in Ns or [opts["N"]]]
    _emit(_render(records, SUM_COLUMNS, opts["format"]), opts["out"])


def _compare_bounds(A, B, z_mod, z_arg, n_max, precision_bits, format, out, **_) -> None:
    prec = PrecisionConfig(precision_bits)
    with working_precision(prec):
        z = RamifiedPoint(abs(mp.mpc(10, 10)) if z_mod is None else z_mod,
                          mp.pi / 4 if z_arg is None else z_arg)
        rows = bound_comparison_table(A, B, z, n_max, prec)
    records = [{"n": row.n,
                "log10_r_as_ln2": mp.nstr(row.log_r_as_ln2, 10),
                "log10_r_as_halfpi": mp.nstr(row.log_r_as_halfpi, 10),
                "log10_r_fact": mp.nstr(row.log_r_fact, 10)} for row in rows]
    _emit(_render(records, BOUND_COLUMNS, format), out)


def _reproduce(target, precision_bits, out, **_) -> None:
    lines, failed = [], False
    for name in repro.TARGETS if target == "all" else [target]:
        lines.append(f"== {name} ==")
        for row in repro.run_target(name, PrecisionConfig(precision_bits)):
            note = f"  [{row.note}]" if row.note else ""
            lines.append(f"{'PASS' if row.passed else 'FAIL'}  {row.label}: computed "
                         f"{row.computed}, expected {row.expected}{note}")
            failed = failed or not row.passed
    _emit("\n".join(lines) + "\n", out)
    if failed:
        print("error: one or more reproduction rows FAILED", file=sys.stderr)
        sys.exit(3)


def _parser() -> _Parser:
    top = _Parser(prog="borelsum",
                  description="Borel summation of Gevrey-1 power series by factorial series.")
    commands = top.add_subparsers(dest="command", metavar="COMMAND", required=True)
    for name, run, about, flags in (
            ("sum", _sum_rows, "Evaluate one summation and print the result.", (*_COMMON, _N)),
            ("table", _sum_rows, "One row per truncation index, deterministic order.",
             (*_COMMON, _N_RANGE)),
            ("compare-bounds", _compare_bounds,
             "Tabulate log10 of the two strip bounds and the factorial bound.",
             [("--A", 1.0, {"type": float}), ("--B", 1.0, {"type": float}),
              ("--z-mod", None, {"type": _within(0, cast=float, strict=True),
                                 "help": "|z| (default |10+10i|)"}),
              ("--z-arg", None, {"type": float, "help": "arg z (default pi/4)"}),
              ("--n-max", 30, {"type": _within(0, MAX_N_MAX)}), _PRECISION, _FORMAT,
               _OUT]),
            ("reproduce", _reproduce,
             "Re-run a stored reference configuration and grade each row.",
             [("target", None, {"choices": [*repro.TARGETS, "all"]}), _PRECISION, _OUT])):
        sub = commands.add_parser(name, help=about, description=about)
        sub.set_defaults(run=run, parser=sub)
        for flag, default, keywords in flags:
            # sum and table see only the flags given; _sum_rows fills in the defaults
            sub.add_argument(flag, **keywords,
                             default=argparse.SUPPRESS if run is _sum_rows else default)
    return top


def main(argv=None):
    args = _parser().parse_args(argv)
    # a library warning is one line, like an error; the process's hook comes back on return
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            args.run(**vars(args))
            return 0
        except UsageError as exc:
            args.parser.error(str(exc))
        except BorelSumError as exc:
            print(f"error: {exc}", file=sys.stderr)
            sys.exit(2)
        except KeyboardInterrupt:
            sys.exit(1)


if __name__ == "__main__":
    main()
