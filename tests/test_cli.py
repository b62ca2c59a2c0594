import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import pytest

PKG = [sys.executable, "-m", "borelsum.cli"]
SRC = str(Path(__file__).resolve().parents[1] / "src")
GOLDEN = Path(__file__).resolve().parent / "golden"


def run_cli(*args, expect=0):
    pythonpath = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(PKG + list(args), capture_output=True, text=True,
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


def test_malformed_series_file_exits_1(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{this is not json")
    run_cli("sum", "--series", str(path), "--method", "factorial",
            "--z-mod", "3", "--N", "5", expect=1)


def test_malformed_series_values_exit_1_without_traceback(tmp_path):
    path = tmp_path / "bad.json"
    for content in (b'{"m": 1, "coefficients": [["0", "0"], ["abc", "0"]]}',
                    b'{"m": 1, "coefficients": [["0", "0"]], "note": "\xff"}'):
        path.write_bytes(content)
        proc = run_cli("sum", "--series", str(path), "--method", "factorial",
                       "--z-mod", "3", "--N", "0", expect=1)
        assert "Traceback" not in proc.stderr


def test_missing_input_exits_1():
    run_cli("sum", "--method", "factorial", "--z-mod", "3", expect=1)
    run_cli("sum", "--builtin", "euler", "--method", "nope", "--z-mod", "3",
            expect=1)


def test_domain_error_exits_2():
    # oracle with Re(z e^(i theta)) <= B
    run_cli("sum", "--builtin", "example2", "--method", "oracle",
            "--z-mod", "0.2", expect=2)


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
        proc = run_cli(*args, "--precision-bits", "52", expect=1)
        assert "--precision-bits" in proc.stderr
        assert "Traceback" not in proc.stderr


def test_reproduce_clean_targets_exit_0():
    run_cli("reproduce", "table3", expect=0)
    run_cli("reproduce", "fig2", expect=0)


def test_reproduce_unknown_target_exits_1():
    run_cli("reproduce", "table9", expect=1)


def test_lambda_warning_on_stderr():
    proc = run_cli("sum", "--builtin", "psi", "--method", "branch",
                   "--lambda", "4", "--z-mod", "12", "--N", "10",
                   "--A", "1", "--B", "1")
    assert "exceeds the envelope" in proc.stderr


def test_out_file(tmp_path):
    target = tmp_path / "result.json"
    run_cli("sum", "--builtin", "euler", "--method", "factorial",
            "--z-mod", "3", "--N", "10", "--format", "json",
            "--out", str(target))
    rec = json.loads(target.read_text())[0]
    assert rec["N"] == 10


GOLDEN_COMMANDS = {
    "compare_bounds": ("compare-bounds", "--n-max", "3"),
    "sum_euler": ("sum", "--builtin", "euler", "--method", "factorial", "--z-mod", "3",
                  "--N", "10", "--A", "4", "--B", "0.05"),
    "table_example2": ("table", "--builtin", "example2", "--method", "generalized",
                       "--z-mod", "5", "--N-range", "10,12"),
}


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_golden_output(name, fmt):
    out = run_cli(*GOLDEN_COMMANDS[name], "--format", fmt).stdout
    assert out == (GOLDEN / f"{name}.{fmt}").read_text()


def test_sum_is_a_one_row_table():
    where = ("--builtin", "psi", "--method", "branch", "--lambda", "2.885390081777927",
             "--z-mod", "12", "--A", "1", "--B", "1", "--format", "json")
    assert run_cli("sum", "--N", "14", *where).stdout == \
        run_cli("table", "--N-range", "14", *where).stdout


def test_text_shows_every_field_of_the_record():
    for args, with_diverging in ((GOLDEN_COMMANDS["sum_euler"], False),
                                 (GOLDEN_COMMANDS["table_example2"], True)):
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
    proc = run_cli("compare-bounds", "--n-max", "1", "--precision-bits", "1200")
    assert "Traceback" not in proc.stderr
    assert len(proc.stdout.splitlines()) == 3


def test_ramified_constant_without_growth_rate_is_a_usage_error():
    proc = run_cli("sum", "--builtin", "psi", "--method", "least-term", "--r", "2",
                   "--z-mod", "12", "--C", "1", expect=1)
    assert "--C" in proc.stderr


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
                                         ("--z-arg", "inf"), ("--z-arg", "nan")])
def test_non_finite_point_is_a_domain_error(flag, value):
    where = {"--z-mod": "12", "--z-arg": "0", flag: value}
    proc = run_cli("sum", "--builtin", "psi", "--method", "branch", "--N", "5",
                   *(f"{k}={v}" for k, v in where.items()), expect=2)
    assert "finite" in proc.stderr
