import csv
import io
import json
import os
import re
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import mpmath as mp
import pytest

PKG = [sys.executable, "-m", "borelsum.cli"]
SRC = str(Path(__file__).resolve().parents[1] / "src")
GOLDEN = Path(__file__).resolve().parent / "golden"


def run_cli(*args, expect=0):
    """``cli.main(args)`` in this process, its stdout, stderr and exit code
    captured; warnings show once per run, as in a fresh process."""
    from borelsum import cli  # here: scripts/same_numbers.py imports this module without it
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("default")
        try:
            code = cli.main(list(args))
        except SystemExit as exc:
            code = exc.code
    proc = subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())
    assert proc.returncode == expect, (proc.returncode, proc.stdout, proc.stderr)
    return proc


def run_cold(*args, expect=0, timeout=None, entry=PKG):
    """The command in a fresh Python process: the CLI as a user starts it."""
    pythonpath = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(entry + list(args), capture_output=True, text=True, timeout=timeout,
                          env={**os.environ, "PYTHONPATH": pythonpath})
    assert proc.returncode == expect, (proc.returncode, proc.stdout, proc.stderr)
    return proc


def test_sum_euler_factorial_vs_oracle():
    out = run_cli("sum", "--builtin", "euler", "--method", "factorial",
                  "--lambda", "1", "--z-mod", "3", "--N", "60",
                  "--format", "json").stdout
    rec = json.loads(out)[0]
    est = mp.mpf(rec["estimate"]["re"])
    oracle = run_cli("sum", "--builtin", "euler", "--method", "oracle",
                     "--z-mod", "3", "--tol", "1e-14", "--format", "json").stdout
    oval = mp.mpf(json.loads(oracle)[0]["estimate"]["re"])
    # factorial series at z=3 converges polynomially: ~7e-8 at N=60
    assert abs(est - oval) < 3e-7
    assert rec["method"] == "factorial"
    assert mp.mpf(rec["heuristic_error"]) > 0


def test_sum_example2_oracle_value():
    out = run_cli("sum", "--builtin", "example2", "--method", "oracle",
                  "--z-mod", "5", "--tol", "1e-9", "--format", "json").stdout
    rec = json.loads(out)[0]
    assert abs(mp.mpf(rec["estimate"]["re"]) - mp.mpf("0.2357006")) < 1e-7


def test_sum_psi_branch_row():
    out = run_cli("sum", "--builtin", "psi", "--method", "branch",
                  "--lambda", "2.885390081777927", "--z-mod", "12",
                  "--N", "14", "--format", "csv").stdout
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["N", "estimate_re", "estimate_im",
                       "heuristic_error", "rigorous_bound"]
    assert abs(mp.mpf(rows[1][1]) - mp.mpf("0.26256292301")) < mp.mpf("1e-10")


def test_table_rows_and_determinism(tmp_path):
    args = ("table", "--builtin", "psi", "--method", "generalized",
            "--lambda", "2.885390081777927", "--z-mod", "12",
            "--N-range", "30,54", "--format", "json")
    out1 = run_cli(*args).stdout
    out2 = run_cli(*args).stdout
    assert out1 == out2  # bit-identical reruns
    recs = json.loads(out1)
    assert [r["N"] for r in recs] == [30, 54]
    assert abs(mp.mpf(recs[1]["estimate"]["re"]) - mp.mpf("0.2625629228786")) < 1e-12


def test_series_file_roundtrip(tmp_path):
    path = tmp_path / "euler.json"
    coeffs = [["0", "0"], ["1", "0"], ["-1", "0"], ["2", "0"], ["-6", "0"],
              ["24", "0"], ["-120", "0"], ["720", "0"], ["-5040", "0"]]
    path.write_text(json.dumps({"m": 1, "coefficients": coeffs}))
    out_file = run_cli("sum", "--series", str(path), "--method", "factorial",
                       "--z-mod", "3", "--N", "6", "--format", "json").stdout
    out_builtin = run_cli("sum", "--builtin", "euler", "--depth", "8",
                          "--method", "factorial", "--z-mod", "3", "--N", "6",
                          "--format", "json").stdout
    assert json.loads(out_file)[0]["estimate"] == json.loads(out_builtin)[0]["estimate"]
    # a dumped psi file sums to the built-in's every digit
    from borelsum import PrecisionConfig, dump_series, psi_series
    psi_path = str(tmp_path / "psi.json")
    dump_series(psi_series(80, PrecisionConfig(256)), psi_path, PrecisionConfig(256))
    args = ("--method", "generalized", "--lambda", "2.885390081777927", "--z-mod", "12",
            "--N", "75")
    assert (run_cli("sum", "--series", psi_path, *args).stdout
            == run_cli("sum", "--builtin", "psi", "--depth", "80", *args).stdout)


def test_malformed_series_file_exits_1(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{this is not json")
    run_cli("sum", "--series", str(path), "--method", "factorial",
            "--z-mod", "3", "--N", "5", expect=1)


def test_malformed_series_values_exit_1_without_traceback(tmp_path):
    path = tmp_path / "bad.json"
    head = '["1", "0"], ["1", "0"], ["2", "0"], ["6", "0"], ["24", "0"]'
    for content, method, N in (
            (b'{"m": 1, "coefficients": [["0", "0"], ["abc", "0"]]}', "factorial", "0"),
            (b'{"m": 1, "coefficients": [["0", "0"]], "note": "\xff"}', "factorial", "0"),
            # a non-finite a_5 once summed to +inf or nan with exit 0
            (f'{{"m": 1, "coefficients": [{head}, ["inf", "0"]]}}'.encode(), "factorial", "3"),
            (f'{{"m": 1, "coefficients": [{head}, ["nan", "0"]]}}'.encode(), "generalized",
             "4")):
        path.write_bytes(content)
        proc = run_cold("sum", "--series", str(path), "--method", method,
                        "--z-mod", "3", "--N", N, expect=1)
        assert "Traceback" not in proc.stderr


def test_missing_input_exits_1(tmp_path):
    run_cli("sum", "--method", "factorial", "--z-mod", "3", expect=1)
    run_cli("sum", "--builtin", "euler", "--method", "nope", "--z-mod", "3",
            expect=1)
    proc = run_cli("sum", "--builtin", "nope", "--method", "factorial", "--z-mod", "3",
                   expect=1)
    assert "unknown builtin 'nope'" in proc.stderr
    # a missing file and a directory
    for path in (tmp_path / "missing.json", tmp_path):
        proc = run_cli("sum", "--series", str(path), "--method", "factorial",
                       "--z-mod", "3", "--N", "2", expect=1)
        assert "cannot read series file" in proc.stderr
    proc = run_cli("sum", "--builtin", "psi", "--method", "oracle", "--z-mod", "12",
                   expect=1)
    assert "--method oracle needs --builtin out of" in proc.stderr


def test_domain_error_exits_2():
    # oracle with Re(z e^(i theta)) <= B
    run_cli("sum", "--builtin", "example2", "--method", "oracle",
            "--z-mod", "0.2", expect=2)
    # an infinite tol would truncate the ray at 8/c and print a wrong value
    proc = run_cli("sum", "--builtin", "euler", "--method", "oracle", "--z-mod", "3",
                   "--tol", "inf", expect=2)
    assert "finite" in proc.stderr and proc.stdout == ""
    # a negative N is named as such, however far below zero, after the route that reads it
    method_fn = {"factorial": "factorial_series_sum", "branch": "branch_sum"}
    for method, N in (("factorial", "-1"), ("factorial", "-5"), ("branch", "-1")):
        proc = run_cli("sum", "--builtin", "euler", "--method", method, "--z-mod", "3",
                       "--N", N, expect=2)
        assert f"{method_fn[method]} needs an integer N >= 0" in proc.stderr and proc.stdout == ""
    proc = run_cli("sum", "--builtin", "psi", "--method", "branch", "--z-mod", "12",
                   "--depth", "-3", expect=2)
    assert "psi_scaled_coefficients needs an integer depth >= 0" in proc.stderr \
        and proc.stdout == ""


def test_least_term_requires_r():
    run_cli("sum", "--builtin", "psi", "--method", "least-term",
            "--z-mod", "12", expect=1)
    out = run_cli("sum", "--builtin", "psi", "--method", "least-term",
                  "--r", "2", "--z-mod", "12", "--format", "json").stdout
    rec = json.loads(out)[0]
    assert rec["N"] == 72
    assert abs(mp.mpf(rec["estimate"]["re"]) - mp.mpf("0.26256292290")) < 1e-10


def test_compare_bounds_default_and_domain():
    out = run_cli("compare-bounds", "--format", "csv").stdout
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "log10_r_as_ln2", "log10_r_as_halfpi", "log10_r_fact"]
    assert len(rows) == 32
    col1 = [float(r[1]) for r in rows[1:]]
    assert col1.index(min(col1)) in (9, 10)
    run_cli("compare-bounds", "--z-mod", "0.5", "--z-arg", "0", expect=2)


def test_compare_bounds_rejects_nonpositive_modulus():
    for mod in ("0", "-3"):
        proc = run_cli("compare-bounds", "--z-mod", mod, "--B", "0.5", expect=1)
        assert "--z-mod" in proc.stderr


def test_compare_bounds_fills_the_missing_flag_from_its_default():
    from borelsum import bound_comparison_table, working_precision
    from borelsum.numerics import DEFAULT_PRECISION
    for flags, mod, arg in ((("--z-arg", "0.3"), None, 0.3),
                            (("--z-mod", "20"), 20, None)):
        out = run_cli("compare-bounds", *flags, "--n-max", "3", "--format", "json").stdout
        with working_precision(DEFAULT_PRECISION):
            modv = abs(mp.mpc(10, 10)) if mod is None else mp.mpf(mod)
            argv = mp.pi / 4 if arg is None else mp.mpf(arg)
            rows = bound_comparison_table(1.0, 1.0, modv * mp.exp(1j * argv), 3)
            expected = [mp.nstr(r.log_r_fact, 10) for r in rows]
        assert [rec["log10_r_fact"] for rec in json.loads(out)] == expected


def test_precision_below_53_bits_is_a_usage_error():
    for args in (("sum", "--builtin", "euler", "--method", "oracle", "--z-mod", "3"),
                 ("compare-bounds",),
                 ("reproduce", "fig2")):
        proc = run_cold(*args, "--precision-bits", "52", expect=1)
        assert "--precision-bits" in proc.stderr
        assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("args", [
    ("--builtin", "psi", "--method", "branch", "--z-mod", "12", "--N", "10",
     "--precision-bits", "100000000"),
    ("--builtin", "euler", "--method", "factorial", "--z-mod", "3", "--N", "10",
     "--depth", "99999999999999999999")], ids=["precision-bits", "depth"])
def test_a_size_over_its_limit_is_a_usage_error_before_any_work(monkeypatch, args):
    # once each ran without bound; now the parser refuses them, and no series is
    # built and nothing summed
    from borelsum import cli
    work = []
    monkeypatch.setattr(cli, "_load_input", lambda *a: work.append(a))
    monkeypatch.setattr(cli, "summate", lambda *a, **k: work.append(a))
    proc = run_cli("sum", *args, expect=1)
    assert f"argument {args[-2]}: {args[-1]} is over the limit" in proc.stderr
    assert proc.stdout == "" and work == []


def test_a_series_file_over_the_depth_limit_is_a_usage_error(monkeypatch, tmp_path):
    # a file's length bounds a sum as --depth bounds a built-in series: one
    # coefficient past a_0..a_MAX_DEPTH is refused at load, before any row is built
    from borelsum import cli
    rows, work = [["1", "0"]] * (cli.MAX_DEPTH + 2), []
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"m": 1, "coefficients": rows}))
    monkeypatch.setattr(cli, "summate", lambda *a, **k: work.append(a))
    proc = run_cli("sum", "--series", str(path), "--method", "factorial", "--z-mod", "3",
                   "--N", "5", expect=1)
    assert f"series file has {cli.MAX_DEPTH + 2} coefficients, over the limit " \
           f"{cli.MAX_DEPTH + 1}" in proc.stderr
    assert proc.stdout == "" and work == []
    monkeypatch.undo()
    path.write_text(json.dumps({"m": 1, "coefficients": rows[1:]}))
    run_cli("sum", "--series", str(path), "--method", "factorial", "--z-mod", "3", "--N", "5")


def test_the_size_limits_admit_their_largest_values():
    # compare-bounds at the largest --n-max; the largest depth and precision parse
    from borelsum import cli
    records = json.loads(run_cli("compare-bounds", "--n-max", str(cli.MAX_N_MAX),
                                 "--format", "json").stdout)
    assert records[-1]["n"] == cli.MAX_N_MAX
    run_cli("compare-bounds", "--n-max", str(cli.MAX_N_MAX + 1), expect=1)
    args = cli._parser().parse_args(["sum", "--builtin", "euler", "--method", "oracle",
                                     "--z-mod", "3", "--depth", str(cli.MAX_DEPTH),
                                     "--precision-bits", str(cli.MAX_PRECISION_BITS)])
    assert (args.depth, args.precision_bits) == (cli.MAX_DEPTH, cli.MAX_PRECISION_BITS)


def test_reproduce_clean_targets_exit_0():
    run_cli("reproduce", "table3", expect=0)
    run_cli("reproduce", "fig2", expect=0)


def test_reproduce_unknown_target_exits_1():
    run_cli("reproduce", "table9", expect=1)


LAMBDA_WARNING = ("warning: lambda = 4 exceeds the envelope's permitted factor 2.88539; "
                  "convergence is no longer guaranteed\n")
PSI_BRANCH_LAMBDA_4 = ("--builtin", "psi", "--method", "branch", "--lambda", "4",
                       "--z-mod", "12", "--A", "1", "--B", "1")


def test_lambda_warning_on_stderr():
    # one line in the style of "error: ...", no file path and no source excerpt,
    # and a table whose rows all warn prints it once
    assert run_cli("sum", *PSI_BRANCH_LAMBDA_4, "--N", "10").stderr == LAMBDA_WARNING
    assert run_cli("table", *PSI_BRANCH_LAMBDA_4, "--N-range", "10,12,14").stderr == \
        LAMBDA_WARNING


def test_main_in_process_puts_the_warning_hook_back(capsys):
    from borelsum.cli import main  # the module reads no borelsum at import
    hook = warnings.showwarning
    assert main(["sum", *PSI_BRANCH_LAMBDA_4, "--N", "10"]) == 0
    assert capsys.readouterr().err == LAMBDA_WARNING
    assert warnings.showwarning is hook
    with pytest.raises(SystemExit, match="2"):  # a domain error, raised inside the hook's scope
        main(["sum", *PSI_BRANCH_LAMBDA_4[:4], "--lambda", "inf", "--z-mod", "12", "--N", "10"])
    assert warnings.showwarning is hook


def test_a_non_finite_lambda_is_refused_before_the_envelope_warns():
    proc = run_cli("sum", "--builtin", "psi", "--method", "branch", "--lambda", "inf",
                   "--z-mod", "12", "--N", "10", "--A", "1", "--B", "1", expect=2)
    assert proc.stderr == "error: lambda must be finite and positive\n"


def test_out_file(tmp_path):
    target = tmp_path / "result.json"
    run_cold("sum", "--builtin", "euler", "--method", "factorial",
             "--z-mod", "3", "--N", "10", "--format", "json",
             "--out", str(target))
    rec = json.loads(target.read_text())[0]
    assert rec["N"] == 10
    # a missing directory or a directory is a usage error, not a traceback
    for bad in (tmp_path / "missing" / "result.txt", tmp_path):
        for args in (("sum", "--builtin", "euler", "--method", "factorial", "--z-mod", "3",
                      "--N", "10"), ("compare-bounds", "--n-max", "3"), ("reproduce", "fig2")):
            proc = run_cold(*args, "--out", str(bad), expect=1)
            assert "Traceback" not in proc.stderr
            assert "cannot write --out file" in proc.stderr


def test_a_huge_m_does_not_stall_the_generalized_route(tmp_path):
    # the kernels loop over the residue classes that hold an index, not over all m
    path = tmp_path / "huge_m.json"
    coefficients = [["0", "0"], ["1", "0"], ["1", "0"]]
    path.write_text(json.dumps({"m": 10 ** 9, "coefficients": coefficients}))
    run_cold("sum", "--series", str(path), "--method", "generalized", "--z-mod", "3", "--N", "1",
             timeout=60)


LEAST_TERM_PSI = ("sum", "--builtin", "psi", "--method", "least-term", "--z-mod", "12")

GOLDEN_COMMANDS = {
    "compare_bounds": ("compare-bounds", "--n-max", "3"),
    "sum_euler": ("sum", "--builtin", "euler", "--method", "factorial", "--z-mod", "3",
                  "--N", "10", "--A", "4", "--B", "0.05"),
    "table_example2": ("table", "--builtin", "example2", "--method", "generalized",
                       "--z-mod", "5", "--N-range", "10,12"),
    "table_psi_branch": ("table", "--builtin", "psi", "--method", "branch",
                         "--lambda", "2.885390081777927", "--z-mod", "12",
                         "--N-range", "10,14", "--A", "1", "--B", "1"),
    "sum_psi_least_term": LEAST_TERM_PSI + ("--r", "2", "--A", "1", "--B", "1"),
    "sum_example2_rotated": ("sum", "--builtin", "example2", "--method", "generalized",
                             "--theta", "1.0471975511965976", "--lambda", "0.6",
                             "--z-mod", "5", "--N", "50"),
    "table_psi_generalized": ("table", "--builtin", "psi", "--method", "generalized",
                              "--lambda", "2.885390081777927", "--z-mod", "12",
                              "--N-range", "6,12,24,48,69,75"),
    "sum_example2_oracle": ("sum", "--builtin", "example2", "--method", "oracle",
                            "--theta", "1.0471975511965976", "--z-mod", "5"),
    "sum_euler_oracle": ("sum", "--builtin", "euler", "--method", "oracle", "--z-mod", "3",
                         "--z-arg", "0.5"),
}


COLD_GOLDEN = ("table_psi_branch", "csv")  # the one case run in a fresh process


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_golden_output(name, fmt):
    run = run_cold if (name, fmt) == COLD_GOLDEN else run_cli
    out = run(*GOLDEN_COMMANDS[name], "--format", fmt).stdout
    assert out == (GOLDEN / f"{name}.{fmt}").read_text()


def test_reproduce_all_golden():
    proc = run_cold("reproduce", "all", expect=3)
    assert proc.stdout == (GOLDEN / "reproduce_all.txt").read_text()


def test_sum_is_a_one_row_table():
    where = ("--builtin", "psi", "--method", "branch", "--lambda", "2.885390081777927",
             "--z-mod", "12", "--A", "1", "--B", "1", "--format", "json")
    assert run_cli("sum", "--N", "14", *where).stdout == \
        run_cli("table", "--N-range", "14", *where).stdout


def test_text_shows_every_field_of_the_record():
    for args, with_diverging in ((GOLDEN_COMMANDS["sum_euler"], True),
                                 (GOLDEN_COMMANDS["table_example2"], True),
                                 (GOLDEN_COMMANDS["sum_psi_least_term"], False)):
        records = json.loads(run_cli(*args, "--format", "json").stdout)
        header, *rows = run_cli(*args, "--format", "text").stdout.splitlines()
        assert header.split() == ["N", "estimate_re", "estimate_im"] + \
            [k for k in records[0] if k not in ("N", "estimate")]
        assert ("diverging" in header.split()) == with_diverging
        for rec, row in zip(records, rows, strict=True):
            cells = row.split()
            assert cells[0] == str(rec["N"])
            assert cells[1] == rec["estimate"]["re"]
            assert rec["method"] in cells
            if with_diverging:
                assert cells[-1] == json.dumps(rec["diverging"])


def test_compare_bounds_text_has_the_json_columns():
    header, *rows = run_cli("compare-bounds", "--n-max", "3").stdout.splitlines()
    records = json.loads(run_cli("compare-bounds", "--n-max", "3", "--format", "json").stdout)
    assert header.split() == list(records[0])
    assert [row.split() for row in rows] == [[str(v) for v in rec.values()] for rec in records]


def test_factorial_method_on_ramified_series_names_the_other_routes():
    proc = run_cli("sum", "--builtin", "psi", "--method", "factorial",
                   "--z-mod", "12", expect=2)
    assert "use branch or generalized" in proc.stderr


def test_precision_above_double_exponent_range():
    # a float default tolerance underflows to 0 past ~1130 bits
    proc = run_cold("compare-bounds", "--n-max", "1", "--precision-bits", "1200")
    assert "Traceback" not in proc.stderr
    assert len(proc.stdout.splitlines()) == 3


def test_least_term_bound_reads_the_envelope():
    from borelsum import (PSI_LAMBDA_SUP, GrowthEnvelope, RamifiedPoint,
                          least_term_sum_ramified, psi_series, r_as_ramified)
    rec = json.loads(run_cli(*LEAST_TERM_PSI, "--r", "2", "--A", "1", "--B", "1",
                             "--format", "json").stdout)[0]
    assert rec["N"] == 72
    want = r_as_ramified(2, 1, 1, 72 // 3, RamifiedPoint(12, 0), 3)
    assert rec["rigorous_bound"] == mp.nstr(want, 8)
    # the library route forms the same bound itself, at its own index
    res = least_term_sum_ramified(psi_series(160), 2, RamifiedPoint(12, 0),
                                  envelope=GrowthEnvelope(A=1, B=1, lam=PSI_LAMBDA_SUP))
    assert res.N == 72 and res.rigorous_bound == want


def test_envelope_constant_without_growth_rate_is_a_usage_error():
    proc = run_cli(*LEAST_TERM_PSI, "--r", "2", "--A", "1", expect=1)
    assert "--A and --B" in proc.stderr and proc.stdout == ""


EULER_FACTORIAL = ("sum", "--builtin", "euler", "--method", "factorial", "--z-mod", "3")

# each command with the flag it must name: abbreviations of one flag and of
# two, and --C, the gone ramified constant.  A parser that took abbreviations
# would run table-N, sum-lam and compare-bounds-n as --N-range 5, --lambda 2
# and --n-max 3.
REFUSED_FLAGS = {
    "table-N": (("table", "--builtin", "euler", "--method", "factorial", "--z-mod", "3",
                 "--N-range", "5", "--N", "5"), "--N"),
    "sum-lam": ((*EULER_FACTORIAL, "--lam", "2"), "--lam"),
    "sum-z": ((*EULER_FACTORIAL, "--z", "3"), "--z"),
    "compare-bounds-n": (("compare-bounds", "--n", "3"), "--n"),
    "sum-C": ((*LEAST_TERM_PSI, "--r", "2", "--A", "1", "--B", "1", "--C", "1"), "--C"),
}

# commands argparse itself refuses, before borelsum reads any flag
USAGE_ERRORS = {
    "no-command": (),
    "unknown-command": ("nosuch",),
    "reproduce-without-target": ("reproduce",),
    "unknown-format": (*EULER_FACTORIAL, "--format", "xml"),
    "non-integer-N": (*EULER_FACTORIAL, "--N", "x"),
}


@pytest.mark.parametrize("args, flag", REFUSED_FLAGS.values(), ids=list(REFUSED_FLAGS))
def test_an_abbreviated_or_unknown_flag_is_refused(args, flag):
    proc = run_cli(*args, expect=1)
    # named in the error line itself, not as the prefix of a longer flag
    assert re.search(re.escape(flag) + r"(?![\w-])", proc.stderr.splitlines()[-1])
    assert proc.stdout == ""


@pytest.mark.parametrize("args", USAGE_ERRORS.values(), ids=list(USAGE_ERRORS))
def test_a_usage_error_exits_1_without_traceback(args):
    proc = run_cold(*args, expect=1)
    assert "Traceback" not in proc.stderr and proc.stderr and proc.stdout == ""


@pytest.mark.parametrize("command", ["", "sum", "table", "compare-bounds", "reproduce"])
def test_help_exits_0_on_stdout(command):
    proc = run_cli(*filter(None, [command]), "--help")
    assert proc.stdout and proc.stderr == ""
    if command in ("sum", "table"):
        from borelsum.cli import METHOD_FLAGS
        common = {"--builtin", "--method", "--z-mod", "--z-arg", "--precision-bits",
                  "--format", "--out"}
        # sum reads one N, table a range of them
        other = {"sum": "--N-range", "table": "--N"}[command]
        expected = set().union(common, *METHOD_FLAGS.values()) - {other}
        named = set(re.findall(r"--[\w-]+", proc.stdout))
        assert expected <= named and other not in named


def test_the_cli_runs_without_click():
    argv = [*GOLDEN_COMMANDS["sum_euler"], "--format", "json"]
    code = ("import sys; sys.modules['click'] = None; from borelsum.cli import main; "
            f"main({argv!r})")
    proc = run_cold(code, entry=[sys.executable, "-c"])
    assert proc.stdout == (GOLDEN / "sum_euler.json").read_text()


def test_non_finite_strip_width_is_a_domain_error():
    proc = run_cold(*LEAST_TERM_PSI, "--r", "inf", expect=2)
    assert "finite" in proc.stderr and "Traceback" not in proc.stderr


def test_strip_width_outside_least_term_is_a_usage_error():
    # the bound of these methods uses the region envelope, so --r would be dropped
    for builtin, method in [("euler", "factorial"), ("euler", "oracle"),
                            ("psi", "branch"), ("psi", "generalized")]:
        proc = run_cli("sum", "--builtin", builtin, "--method", method, "--N", "20",
                       "--depth", "70", "--A", "4", "--B", "0.05", "--r", "0.5",
                       "--z-mod", "3", "--format", "json", expect=1)
        assert "--r" in proc.stderr and proc.stdout == "", method
    proc = run_cli("sum", "--builtin", "euler", "--method", "factorial", "--N", "20",
                   "--depth", "30", "--A", "4", "--B", "0.05", "--z-mod", "3",
                   "--format", "json")
    assert json.loads(proc.stdout)[0]["rigorous_bound"] == "0.0076211494"


def test_empty_ranges_are_usage_errors():
    proc = run_cli("table", "--builtin", "euler", "--method", "factorial",
                   "--z-mod", "3", "--N-range", "5:4", expect=1)
    assert "empty" in proc.stderr and proc.stdout == ""
    proc = run_cli("compare-bounds", "--n-max", "-1", "--format", "json", expect=1)
    assert "--n-max" in proc.stderr and proc.stdout == ""


@pytest.mark.parametrize("flag, value", [("--z-mod", "inf"), ("--z-mod", "nan"),
                                         ("--z-arg", "inf"), ("--z-arg", "nan"),
                                         ("--lambda", "inf"), ("--lambda", "nan")])
def test_non_finite_point_is_a_domain_error(flag, value):
    where = {"--z-mod": "12", "--z-arg": "0", flag: value}
    proc = run_cli("sum", "--builtin", "psi", "--method", "branch", "--N", "5",
                   *(f"{k}={v}" for k, v in where.items()), expect=2)
    assert "finite" in proc.stderr
    if flag == "--lambda":
        assert "lambda" in proc.stderr


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize("method", ["generalized", "oracle"])
def test_non_finite_theta_is_named(method, value):
    # checked before the rotated series or the ray is built from it
    N = ("--N", "10") if method == "generalized" else ()
    proc = run_cli("sum", "--builtin", "example2", "--method", method, "--z-mod", "5", *N,
                   f"--theta={value}", expect=2)
    assert "theta must be finite" in proc.stderr and proc.stdout == ""


def test_compare_bounds_names_a_non_finite_B():
    proc = run_cli("compare-bounds", "--B", "nan", expect=2)
    assert "positive A, B" in proc.stderr and proc.stdout == ""


@pytest.mark.parametrize("args, unread", [
    (("--builtin", "example2", "--method", "generalized", "--N", "10", "--A", "2",
      "--B", "0.25"), ("--A", "--B")),
    (("--builtin", "example2", "--method", "oracle", "--A", "2", "--B", "0.25"),
     ("--A", "--B")),
    (("--builtin", "euler", "--method", "factorial", "--theta", "1", "--tol", "1e-3"),
     ("--theta", "--tol")),
    (("--builtin", "psi", "--method", "least-term", "--r", "2", "--lambda", "2"),
     ("--lambda",)),
    (("--series", "/nonexistent.json", "--builtin", "euler", "--method", "oracle"),
     ("--series",)),
    (("--builtin", "euler", "--method", "oracle", "--depth", "5"), ("--depth",)),
    (("--builtin", "euler", "--method", "oracle", "--N", "7"), ("--N",)),
    # least-term truncates at its own index m floor(r |z|)
    (("--builtin", "psi", "--method", "least-term", "--r", "2", "--N", "7"), ("--N",)),
    # a series file holds its own coefficients
    (("--series", "FILE", "--method", "factorial", "--N", "2", "--depth", "5"),
     ("--series", "--depth")),
])
def test_a_flag_the_method_does_not_read_is_a_usage_error(args, unread, tmp_path):
    path = tmp_path / "euler.json"
    path.write_text(json.dumps({"m": 1, "coefficients": [[str(c), "0"] for c in
                                                         (0, 1, -1, 2, -6, 24)]}))
    args = [str(path) if arg == "FILE" else arg for arg in args]
    proc = run_cli("sum", "--z-mod", "5", *args, expect=1)
    assert "does not read" in proc.stderr and proc.stdout == ""
    assert all(flag in proc.stderr for flag in unread)


def test_table_with_the_oracle_is_a_usage_error():
    # the quadrature has no truncation index and least-term picks its own:
    # each row would repeat the one value
    for where in (("--builtin", "euler", "--method", "oracle", "--z-mod", "3"),
                  ("--builtin", "psi", "--method", "least-term", "--r", "2", "--z-mod", "12")):
        proc = run_cli("table", *where, "--N-range", "1:4", expect=1)
        assert "does not read --N-range" in proc.stderr and proc.stdout == ""


def test_a_range_names_exactly_the_indices_it_says():
    where = ("table", "--builtin", "euler", "--method", "factorial", "--z-mod", "3")
    out = run_cli(*where, "--N-range", "5:1:-1", "--format", "json").stdout
    assert [rec["N"] for rec in json.loads(out)] == [5, 4, 3, 2, 1]
    # a fourth field would be dropped
    proc = run_cli(*where, "--N-range", "1:3:1:9", expect=1)
    assert "cannot parse" in proc.stderr and proc.stdout == ""


def test_a_huge_range_stop_runs_until_the_series_runs_out():
    # the range stays lazy: N = 159 needs a_161 of the depth-160 series
    proc = run_cold("table", "--builtin", "euler", "--method", "factorial", "--z-mod", "3",
                    "--N-range", f"150:{10 ** 19}", expect=2)
    assert "a_161" in proc.stderr and "Traceback" not in proc.stderr and proc.stdout == ""


def test_factorial_route_sums_at_the_parsed_cover_point():
    from borelsum import (PrecisionConfig, RamifiedPoint, euler_series,
                          factorial_expansion, factorial_series_sum)
    rec = json.loads(run_cli("sum", "--builtin", "euler", "--method", "factorial",
                             "--N", "200", "--depth", "210", "--A", "4.0", "--B", "0.05",
                             "--z-mod=8.75", "--z-arg=-0.25", "--format", "json").stdout)[0]
    prec = PrecisionConfig(256)
    e = factorial_expansion(euler_series(210, prec), 1, 201, prec)
    want = factorial_series_sum(e, RamifiedPoint(8.75, -0.25), 200, prec=prec).estimate
    assert rec["estimate"] == {"re": mp.nstr(mp.re(want), 79), "im": mp.nstr(mp.im(want), 79)}
