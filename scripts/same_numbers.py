"""Check that the working tree prints the same numbers as an earlier commit.

Runs every distinct cold-CLI command of the benchmark workloads
(perfbench/spec.py, seeds 1-3), every golden command of tests/test_cli.py
(``GOLDEN_COMMANDS``, in json), ``reproduce all`` and one command for each
route those leave out (``EXTRA``), once on the working tree's src/ and once
on ``git archive REV src``, and lists each command whose stdout or exit
code differs, with its first differing stdout line from each side (or the
two exit codes) and, where the two stdouts differ only in their numbers, the
largest relative and the largest absolute difference between corresponding
numbers (a number near zero can move by a relative 1 and still be noise).
Of each command that exits non-zero on either side it compares the stderr
too, and lists each that differs, with its first differing stderr line.  It
then runs one seed-1 library pass of every benchmark workload
(perfbench/workloads.py, imported read-only) on each side, prints every
``Workload.values`` entry to 90 digits and names each value that differs, with
its relative and absolute difference.
The same pass prints every condition number its outputs hold
(``SummationResult.condition_number`` and each entry of
``FactorialExpansion.condition``), with the value it belongs to (the
estimate, the coefficient); the script names each one that differs and
counts the identical ones per method.  A value with a condition number (each
such estimate and coefficient, each c_n of the m = 3 member below and each
sum of the sweeps) also has a roundoff scale cond·2^-bits·|value| at its
precision, and a moved one is printed as |difference| over the scale at REV,
so a deliberate rounding change can be shown to stay below its roundoff.
Every moved number of an oracle command, and every moved value that a
``laplace_quadrature`` call of the pass returned, is also printed as
|difference| over its tolerance: the command's ``--tol`` or the call's
``tol``, else the precision's default tolerance, so a change to the
quadrature can be shown to move its values far below what they promise.
It compares every c_n and condition number of ``binomial_series(3, -1,
1/2)`` to depth 120 at lambda = 1, unrotated and at theta = 0.4, the same
way, and every field of
sweeps in one process whose sums read kernel terms an earlier sum at their
point formed: psi branch sums at N = 40..5 descending, bounded psi branch
sums at two points alternated, rotated example2 at N = 150, then N = 20,
and three sweeps whose ``diverging`` flips mid-sweep, each up and down:
example2's generalized sums at |z| = 5, N = 10..100, the m = 4 member
``binomial_series(4, 1/2, 1)``'s branch sums at |z| = 8, N = 20..40, and the
factorial sums at |z| = 5, N = 5..60, of a hand-built ``FactorialExpansion``
of ``binomial_series(1, 1/2, -1)``, whose term row is fresh each call, and
the quadratures at theta = 0.4 and z = 4, 5 + i of the evaluators of
``binomial_series(3, -1, 1/2)`` and ``binomial_series(4, 1/2, 1)``, whose c or
alpha is read as an mpf.  Last it prints two line counts of src/borelsum/*.py on
each side: code lines, those holding a token outside comments and docstrings,
and raw lines.  Exits 1 when any command, error message, value or condition
number differs.

    python3 scripts/same_numbers.py REV
"""

import ast
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import tokenize
from collections import Counter
from fractions import Fraction
from itertools import zip_longest
from pathlib import Path

sys.dont_write_bytecode = True  # leave perfbench/ and tests/ as they are
ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "tests")]
import spec  # noqa: E402
from test_cli import GOLDEN_COMMANDS, REFUSED_FLAGS, USAGE_ERRORS  # noqa: E402


# the psi generalized route (the only built-in whose chain offsets l/m round) off
# the golden point, rotated example2 at full depth, the oracle no golden runs, the
# m = 1 generalized and branch routes, which sum as the factorial route does, two
# example2 sweeps over N, whose rows grow and are reused inside one process, a
# bounded psi branch sweep off the real axis, where every branch weight is complex,
# the euler and example2 oracles on rays theta != 0, where the evaluator forms
# its phase e^(i theta/m), the factorial route swept over N at one point, and a
# psi branch sweep over N downwards, which reads shorter prefixes of the kernel
# chain its first row grew, the bounded psi least-term sum off the real axis,
# where the branch weights of its bound are complex, example2 with an explicit
# theta = 0, which must stay the unrotated generalized sum, the rotated m = 1
# generalized route, the first gated m = 1 row whose coefficients have nonzero
# imaginary parts, the rotated psi generalized route, which makes complex parts
# at m = 3, on the Stirling and on the fractional antidiagonals, a gated path, the
# euler oracle at tol 1e-3, whose quadrature runs at its 53-bit floor, the
# oracle at the edges of the quadrature's node cut (a gap c - B of 0.01, where T is
# ~1.5e4, |z| = 10^6, a ray near the imaginary axis, tol 0.5, where T is 8/c, and
# rotated example2 at pi/3 at the benchmark's anchor |z| = 4.5), and the
# usage errors of tests/test_cli.py (``REFUSED_FLAGS``, ``USAGE_ERRORS``):
# abbreviated and unknown flags, no or an unknown command, a missing target, an
# unknown format and a non-integer N, each of which exits 1 with empty stdout,
# and the index domain errors of its ``test_domain_error_exits_2``, which exit 2
# with a message naming the route and the index: a negative N for the factorial
# and the branch route and a negative psi depth, and two walks past the
# benchmark's depths, factorial Euler at N = 600 and generalized example2 at N = 400
_JSON = ("--format", "json")
EXTRA = [
    ("table", "--builtin", "psi", "--method", "generalized", "--lambda", "2.885390081777927",
     "--z-mod", "11.25", "--N-range", "6,12,24,48,69,75", *_JSON),
    ("sum", "--builtin", "example2", "--method", "generalized", "--theta", "1.0471975511965976",
     "--lambda", "0.6", "--z-mod", "4.5", "--N", "150", *_JSON),
    ("sum", "--builtin", "const1", "--method", "oracle", "--z-mod", "2", *_JSON),
    ("sum", "--builtin", "euler", "--method", "generalized", "--z-mod", "3", "--N", "11",
     *_JSON),
    ("sum", "--builtin", "euler", "--method", "branch", "--z-mod", "8.75", "--z-arg", "-0.25",
     "--N", "100", *_JSON),
    ("table", "--builtin", "example2", "--method", "generalized", "--theta", "1.0471975511965976",
     "--lambda", "0.6", "--z-mod", "5", "--N-range", "10:150:20", *_JSON),
    ("table", "--builtin", "example2", "--method", "generalized", "--lambda", "1",
     "--z-mod", "5", "--N-range", "10:100:10", *_JSON),
    ("table", "--builtin", "psi", "--method", "branch", "--lambda", "2.885390081777927",
     "--z-mod", "10", "--z-arg", "-1.2", "--N-range", "3,14,25", "--A", "1", "--B", "1",
     *_JSON),
    ("sum", "--builtin", "euler", "--method", "oracle", "--theta", "0.5", "--z-mod", "3",
     "--z-arg", "0.5", *_JSON),
    ("sum", "--builtin", "example2", "--method", "oracle", "--theta", "-0.75", "--z-mod", "6",
     "--z-arg", "0.25", *_JSON),
    ("table", "--builtin", "euler", "--method", "factorial", "--z-mod", "8.75", "--z-arg",
     "-0.25", "--N-range", "10:200:10", "--depth", "210", "--A", "4", "--B", "0.05", *_JSON),
    ("table", "--builtin", "psi", "--method", "branch", "--lambda", "2.885390081777927",
     "--z-mod", "12", "--N-range", "40:5:-5", *_JSON),
    ("sum", "--builtin", "psi", "--method", "least-term", "--r", "2", "--z-mod", "12",
     "--z-arg", "0.4", "--A", "1", "--B", "1", *_JSON),
    ("sum", "--builtin", "example2", "--method", "generalized", "--theta", "0", "--z-mod", "5",
     "--N", "40", *_JSON),
    ("sum", "--builtin", "euler", "--method", "generalized", "--theta", "0.3", "--z-mod", "5",
     "--N", "30", *_JSON),
    ("sum", "--builtin", "psi", "--method", "generalized", "--theta", "0.5", "--lambda",
     "2.885390081777927", "--z-mod", "11.25", "--N", "60", *_JSON),
    ("sum", "--builtin", "euler", "--method", "oracle", "--z-mod", "3", "--tol", "1e-3",
     *_JSON),
    *(("sum", "--builtin", "euler", "--method", "oracle", *where, *_JSON) for where in (
        ("--z-mod", "0.06"), ("--z-mod", "1e6"), ("--z-mod", "3", "--z-arg", "1.5"),
        ("--z-mod", "3", "--tol", "0.5"))),
    ("sum", "--builtin", "example2", "--method", "oracle", "--theta", "1.0471975511965976",
     "--z-mod", "4.5", *_JSON),
    *(args for args, _ in REFUSED_FLAGS.values()),
    *USAGE_ERRORS.values(),
    *(("sum", "--builtin", "euler", "--method", method, "--z-mod", "3", "--N", "-1")
      for method in ("factorial", "branch")),
    ("sum", "--builtin", "psi", "--method", "branch", "--z-mod", "12", "--depth", "-3"),
    ("sum", "--builtin", "euler", "--method", "factorial", "--z-mod", "3", "--N", "600",
     "--depth", "601", *_JSON),
    ("sum", "--builtin", "example2", "--method", "generalized", "--z-mod", "6", "--N", "400",
     "--depth", "402", *_JSON),
]


def commands() -> list[tuple[str, ...]]:
    argvs = [tuple(cmd["argv"]) for w in spec.WORKLOADS for seed in (1, 2, 3)
             for cmd in spec.cold_commands(w, spec.points(w, seed))]
    goldens = [(*argv, *_JSON) for argv in GOLDEN_COMMANDS.values()]
    return list(dict.fromkeys(argvs + goldens + [("reproduce", "all"), *EXTRA]))


# one seed-1 pass of each workload, one line per value, "workload[i] value", then
# one per condition number in the pass's outputs, "condition where method value",
# then the c_n and condition numbers of one m = 3 family member
VALUES = """
import mpmath as mp
import spec, workloads
from borelsum import FactorialExpansion, SummationResult

def conditions(x, at):  # (where, method, condition number, value key, value) in x
    if isinstance(x, SummationResult):
        yield at, x.method, x.condition_number, f"{at}.estimate", x.estimate
    elif isinstance(x, FactorialExpansion):
        for n, (c, b) in enumerate(zip(x.condition, x.b)):
            yield f"{at}.condition[{n}]", "expansion", c, f"{at}.b[{n}]", b
    elif isinstance(x, (list, tuple, dict)):
        for k, v in (x.items() if isinstance(x, dict) else enumerate(x)):
            yield from conditions(v, f"{at}[{k!r}]")

def roundoff(key, cond, value, bits=spec.PRECISION_BITS):
    print("roundoff", key, mp.nstr(cond * mp.ldexp(abs(value), -bits), 5))

import borelsum
from borelsum.numerics import DEFAULT_PRECISION
quadratures, quadrature = {}, borelsum.laplace_quadrature  # id -> (value, its tol)

def recorded(g, theta, z, tol=None, prec=None):  # the workloads call borelsum's name
    v = quadrature(g, theta, z, tol, prec)
    quadratures[id(v)] = v, (prec or DEFAULT_PRECISION).default_tolerance if tol is None else tol
    return v
borelsum.laplace_quadrature = recorded

for name in spec.WORKLOADS:
    w = workloads.BY_NAME[name](spec.points(name, 1))
    out = w.run_pass()[0]
    for i, v in enumerate(w.values(out)):
        print(f"{name}[{i}]", mp.nstr(v, 90) if isinstance(v, (mp.mpf, mp.mpc)) else repr(v))
        if id(v) in quadratures:
            print("tolerance", f"{name}[{i}]", mp.nstr(quadratures[id(v)][1], 20))
    for at, method, c, key, v in conditions(out, name):
        print("condition", at, method, mp.nstr(c, 90))
        print(key, mp.nstr(v, 90))
        roundoff(key, c, v)

# an m = 3 member, where c_n at n = 0 mod 3 reads a Stirling antidiagonal and every
# other c_n a fractional one: its c_1..c_120 at lambda = 1, unrotated and at theta = 0.4
from borelsum import binomial_series, working_precision
from borelsum.classical import _expansion
with working_precision(None) as cfg:
    f = binomial_series(3, -1, "1/2", 120)
    for theta in (None, mp.mpf("0.4")):
        e = _expansion(f, mp.mpf(1), theta, 120, cfg)
        at = f"binomial(3,-1,1/2)@theta={theta or 0}"
        for n, (c, k) in enumerate(zip(e.b, e.condition), 1):
            print(f"{at}.c[{n}]", mp.nstr(c, 90))
            print("condition", f"{at}.condition[{n}]", "m3-expansion", mp.nstr(k, 90))
            roundoff(f"{at}.c[{n}]", k, c, cfg.mantissa_bits)

# sums in one process whose kernel terms an earlier sum at their point formed: psi
# branch sums at N = 40..5 descending, psi branch sums under an envelope at two
# points alternated, N = 5..40, rotated example2 at N = 150, then N = 20, and,
# up then down, three sweeps whose diverging flag flips: example2 generalized
# (at N = 50), the m = 4 binomial member's branch sums (at N = 31) and a
# hand-built expansion's factorial sums (at N = 24)
from borelsum import (PSI_LAMBDA_SUP, GrowthEnvelope, RamifiedPoint, branch_sum,
                      example2_series, factorial_expansion, factorial_series_sum,
                      generalized_factorial_sum, psi_series, rotated_generalized_sum)
prec = workloads.prec
with working_precision(prec):
    lam, theta = mp.mpf(2.885390081777927), mp.pi / 3
psi, ex2 = psi_series(3 * 43, prec), example2_series(152, prec)
z1, z2, z_ex2 = RamifiedPoint(12, 0), RamifiedPoint(10, "-1.2"), RamifiedPoint(4.5, 0)
strip = GrowthEnvelope(A=1, B=1, lam=PSI_LAMBDA_SUP)
sweeps = {
    "psi-descending": [(N, branch_sum(psi, lam, z1, N, prec=prec)) for N in range(40, 4, -1)],
    "psi-alternated": [(f"{N}@z{i}", branch_sum(psi, lam, z, N, strip, prec))
                       for N in range(5, 41) for i, z in enumerate((z1, z2), 1)],
    "ex2-rotated": [(N, rotated_generalized_sum(ex2, theta, "0.6", z_ex2, N, prec))
                    for N in (150, 20)],
}
e = factorial_expansion(binomial_series(1, "1/2", -1, 62, prec), 1, 61, prec)
hand = FactorialExpansion(lam=e.lam, b=e.b, a0=e.a0, condition=e.condition)
quartic, z5, z8 = binomial_series(4, "1/2", 1, 4 * 42, prec), RamifiedPoint(5, 0), RamifiedPoint(8, 0)
flipping = {
    "ex2-flips": (range(10, 101), lambda N: generalized_factorial_sum(ex2, 1, z5, N, prec)),
    "m4-flips": (range(20, 41), lambda N: branch_sum(quartic, 1, z8, N, prec=prec)),
    "hand-built-flips": (range(5, 61), lambda N: factorial_series_sum(hand, z5, N, prec=prec)),
}
for name, (Ns, route) in flipping.items():
    for order, seq in (("up", Ns), ("down", Ns[::-1])):
        sweeps[f"{name}-{order}"] = [(N, route(N)) for N in seq]
for name, results in sweeps.items():
    for N, r in results:
        at = f"{name}[{N}]"
        for field in ("estimate", "heuristic_error", "rigorous_bound", "diverging"):
            v = getattr(r, field)
            print(f"{at}.{field}", mp.nstr(v, 90) if isinstance(v, (mp.mpf, mp.mpc)) else v)
        print("condition", at, r.method, mp.nstr(r.condition_number, 90))
        roundoff(f"{at}.estimate", r.condition_number, r.estimate, prec.mantissa_bits)

# the quadratures of the members whose c or alpha is no integer, on the ray
# theta = 0.4, where the evaluator reads c or alpha as an mpf and forms its phase
from fractions import Fraction
from borelsum import laplace_quadrature
from borelsum.oracle import _binomial_evaluator
for m, alpha, c in ((3, -1, Fraction(1, 2)), (4, Fraction(1, 2), 1)):
    g = _binomial_evaluator(m, Fraction(alpha), Fraction(c), 3, 0.5)
    for z in (4, mp.mpc(5, 1)):
        v = laplace_quadrature(g, mp.mpf("0.4"), z, None, prec)
        at = f"quadrature-binomial({m},{alpha},{c})@theta=0.4,z={mp.nstr(z, 5).replace(' ', '')}"
        print(at, mp.nstr(v, 90))
        print("tolerance", at, mp.nstr(prec.default_tolerance, 20))
"""


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def largest_differences(out: str, rev_out: str) -> tuple[Fraction, Fraction] | None:
    """(max |a - b| / max(|a|, |b|), max |a - b|) over the corresponding numbers
    of two outputs, read exactly; None when the text between the numbers differs."""
    if _NUMBER.split(out) != _NUMBER.split(rev_out):
        return None
    pairs = zip(map(Fraction, _NUMBER.findall(out)), map(Fraction, _NUMBER.findall(rev_out)))
    moved = [(a, b) for a, b in pairs if a != b]
    return (max((abs(a - b) / max(abs(a), abs(b)) for a, b in moved), default=Fraction(0)),
            max((abs(a - b) for a, b in moved), default=Fraction(0)))


def differences(line: str | None, rev_line: str | None) -> tuple[float | None, float] | None:
    """(|a - b| / |b|, |a - b|) for the value of two library lines, a complex
    value taken as its (re, im) pair, the sign of its imaginary part read
    with it, the relative one None when b = 0; None when a line is missing or
    the text differs."""
    if line is None or rev_line is None:
        return None
    (key, value), (rev_key, rev_value) = (v.replace(" + ", " +").replace(" - ", " -")
                                          .split(" ", 1) for v in (line, rev_line))
    if key != rev_key or _NUMBER.split(value) != _NUMBER.split(rev_value):
        return None
    a, b = ([Fraction(x) for x in _NUMBER.findall(v)] for v in (value, rev_value))
    norm, moved = sum(y * y for y in b), sum((x - y) ** 2 for x, y in zip(a, b))
    return float(moved / norm) ** 0.5 if norm else None, float(moved) ** 0.5


def run(src: Path, argv, path: str = "") -> tuple[int, str, str]:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), path])),
           "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, *argv], cwd=src, capture_output=True, text=True,
                          env=env)
    return proc.returncode, proc.stdout, proc.stderr


def cli(src: Path, argv) -> tuple[int, str, str]:
    return run(src, ["-m", "borelsum.cli", *argv])


def library_values(src: Path) -> tuple[list[str], list[str], dict[str, float],
                                        dict[str, Fraction]]:
    """(value lines, condition lines, roundoff scale by value key, tolerance by
    the key of a quadrature value) of the seed-1 library passes."""
    code, out, _ = run(src, ["-c", VALUES], str(ROOT / "perfbench"))
    if code:
        sys.exit(f"the library pass on {src} exited {code}")
    lines = out.splitlines()
    scales = dict(line.split()[1:] for line in lines if line.startswith("roundoff "))
    tolerances = dict(line.split()[1:] for line in lines if line.startswith("tolerance "))
    return ([line for line in lines
             if not line.startswith(("condition ", "roundoff ", "tolerance "))],
            [line for line in lines if line.startswith("condition ")],
            {key: float(scale) for key, scale in scales.items()},
            {label: Fraction(tol) for label, tol in tolerances.items()})


# the default tolerance of each precision given as an argument ("" for the
# default precision), as "mantissa exponent"
DEFAULT_TOLERANCES = """
import sys
from borelsum import PrecisionConfig
from borelsum.numerics import DEFAULT_PRECISION
for bits in sys.argv[1:]:
    print(*(PrecisionConfig(int(bits)) if bits else DEFAULT_PRECISION).default_tolerance.man_exp)
"""


def flag(argv, name: str) -> str | None:
    """The value of ``name`` in ``argv``, given as ``name value`` or ``name=value``."""
    for arg, value in zip(argv, argv[1:]):
        if arg == name:
            return value
    return next((arg.split("=", 1)[1] for arg in argv if arg.startswith(name + "=")), None)


def oracle_tolerances(src: Path, argvs) -> dict[tuple[str, ...], Fraction]:
    """The tolerance of each json oracle command in ``argvs``: its ``--tol``, else
    the default tolerance of its ``--precision-bits`` as the library at ``src``
    forms it."""
    argvs = [a for a in argvs
             if flag(a, "--method") == "oracle" and flag(a, "--format") == "json"]
    bits = sorted({flag(a, "--precision-bits") or "" for a in argvs if not flag(a, "--tol")})
    code, out, _ = run(src, ["-c", DEFAULT_TOLERANCES, *bits])
    if code:
        sys.exit(f"the default tolerances on {src} exited {code}")
    default = {b: Fraction(int(man)) * Fraction(2) ** int(exp)
               for b, (man, exp) in zip(bits, map(str.split, out.splitlines()))}
    return {a: Fraction(flag(a, "--tol") or default[flag(a, "--precision-bits") or ""])
            for a in argvs}


def moved_numbers(out: str, rev_out: str) -> list[tuple[str, Fraction]]:
    """(where, |a - b|) of each numeric string that moved between two JSON
    outputs, at the same place in both."""
    def leaves(x, at=""):
        if isinstance(x, (list, dict)):
            for k, v in (x.items() if isinstance(x, dict) else enumerate(x)):
                yield from leaves(v, f"{at}[{k!r}]")
        elif isinstance(x, str) and _NUMBER.fullmatch(x):
            yield at, Fraction(x)
    here, there = (dict(leaves(json.loads(o))) for o in (out, rev_out))
    return [(at, abs(here[at] - there[at])) for at in here
            if at in there and here[at] != there[at]]


def compare_conditions(here: list[str], there: list[str], rev: str) -> bool:
    """Name each condition number that differs, count the identical ones per
    method; True when all are identical."""
    same, total = Counter(), Counter()
    for a, b in zip_longest(here, there):
        method = (a or b).split()[2]
        total[method] += 1
        same[method] += a == b
        if a != b:
            print(f"DIFFERS: {(a or b).rsplit(' ', 1)[0]}\n  here:   {a and a.split()[-1]}"
                  f"\n  at {rev}: {b and b.split()[-1]}")
    for method in total:
        print(f"{same[method]} of {total[method]} {method} condition numbers are identical")
    return same == total


_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
_NO_CODE = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER)


def source_lines(src: Path) -> tuple[int, int]:
    """(code lines, raw lines) of src/borelsum/*.py: a code line holds a token
    that is no comment and lies in no docstring, so blank lines, comments and
    docstrings are left out of the first count."""
    code = raw = 0
    for path in (src / "borelsum").glob("*.py"):
        text = path.read_text(encoding="utf-8")
        raw += len(text.splitlines())
        docstrings = {line for node in ast.walk(ast.parse(text)) if isinstance(node, _DOCUMENTED)
                      and ast.get_docstring(node, clean=False) is not None
                      for line in range(node.body[0].lineno, node.body[0].end_lineno + 1)}
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        lines = {line for tok in tokens if tok.type not in _NO_CODE
                 for line in range(tok.start[0], tok.end[0] + 1)}
        code += len(lines - docstrings)
    return code, raw


def main(rev: str) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", rev, "src"],
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", tmp], stdin=archive.stdout, check=True)
        if archive.wait():
            sys.exit(f"git archive {rev} failed")
        argvs = commands()
        results = [(a, cli(ROOT / "src", a), cli(Path(tmp) / "src", a)) for a in argvs]
        (values, conds, _, _), (rev_values, rev_conds, scales, tolerances) = (
            library_values(ROOT / "src"), library_values(Path(tmp) / "src"))
        oracle_tols = oracle_tolerances(ROOT / "src", [a for a, here, there in results
                                                       if here[0] == there[0] == 0])
        lines = source_lines(ROOT / "src"), source_lines(Path(tmp) / "src")
    differ = [r for r in results if r[1][:2] != r[2][:2]]
    for argv, (code, out, _), (rev_code, rev_out, _) in differ:
        print("DIFFERS:", " ".join(argv))
        pairs = [(f"exit {code}", f"exit {rev_code}")] + list(
            zip_longest(out.split("\n"), rev_out.split("\n")))
        here, there = next(pair for pair in pairs if pair[0] != pair[1])
        print(f"  here:   {here}\n  at {rev}: {there}")
        sizes = largest_differences(out, rev_out)
        print("  the text between the numbers differs" if sizes is None else
              f"  largest difference between numbers: relative {float(sizes[0]):.3g}, "
              f"absolute {float(sizes[1]):.3g}")
        if argv in oracle_tols:
            tol = oracle_tols[argv]
            for at, moved_by in moved_numbers(out, rev_out):
                print(f"  {at} moved by {float(moved_by / tol):.3g} x tol ({float(tol):.3g})")
    print(f"{len(argvs) - len(differ)} of {len(argvs)} commands give the same stdout and exit code")
    failing = [r for r in results if r[1][0] or r[2][0]]
    errors = [r for r in failing if r[1][2] != r[2][2]]
    for argv, (*_, err), (*_, rev_err) in errors:
        here, there = next(pair for pair in zip_longest(err.split("\n"), rev_err.split("\n"))
                           if pair[0] != pair[1])
        print(f"DIFFERS in stderr: {' '.join(argv)}\n  here:   {here}\n  at {rev}: {there}")
    print(f"{len(failing) - len(errors)} of {len(failing)} commands that exit non-zero "
          "give the same stderr")
    pairs = list(zip_longest(values, rev_values))
    moved = [pair for pair in pairs if pair[0] != pair[1]]
    in_roundoffs = []
    for here, there in moved:
        print(f"DIFFERS: library value\n  here:   {here}\n  at {rev}: {there}")
        sizes = differences(here, there)
        if sizes is not None:
            print(f"  difference: relative {'none' if sizes[0] is None else f'{sizes[0]:.3g}'}, "
                  f"absolute {sizes[1]:.3g}")
            scale = scales.get(there.split(" ", 1)[0])
            if scale is not None:
                in_roundoffs.append(sizes[1] / scale if scale else float("inf"))
                print(f"  in roundoffs: {in_roundoffs[-1]:.3g} x cond 2^-bits |value| at {rev}")
            tol = tolerances.get(there.split(" ", 1)[0])
            if tol is not None:
                print(f"  over its tolerance: {sizes[1] / float(tol):.3g} x tol ({float(tol):.3g})")
    print(f"{len(pairs) - len(moved)} of {len(pairs)} library values of the seed-1 workload "
          "passes are identical")
    if in_roundoffs:
        print(f"{len(in_roundoffs)} moved values have a condition number; the largest move is "
              f"{max(in_roundoffs):.3g} x cond 2^-bits |value|")
    conds_same = compare_conditions(conds, rev_conds, rev)
    (code, raw), (rev_code, rev_raw) = lines
    print(f"src/borelsum/*.py: {code} code lines ({raw} raw) here, "
          f"{rev_code} ({rev_raw} raw) at {rev}")
    return 1 if differ or errors or moved or not conds_same else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else "HEAD"))
