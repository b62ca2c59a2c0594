"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench -q

They take a few minutes: the ex2-generalized pass fills its exact caches
first, and two tests run the whole benchmark on the cheapest workload.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import spec  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

CHEAP = "euler-factorial-oracle"


def bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def result(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def runs() -> dict:
    """Two traced runs and one untraced run of the cheapest workload, seed 3."""
    args = ["--workload", CHEAP, "--seed", "3", "--seconds", "1"]
    out = {"trace": [bench(*args, "--trace", "1") for _ in range(2)],
           "plain": bench(*args, "--trace", "0")}
    for proc in out["trace"] + [out["plain"]]:
        assert proc.returncode == 0, proc.stderr
    return out


@pytest.mark.parametrize("workload", spec.WORKLOADS)
def test_traced_pass_is_bit_identical_and_counts_repeat(workload):
    w = workloads.BY_NAME[workload](spec.points(workload, 5))
    plain = w.values(w.run_pass()[0])
    summaries = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            traced = w.values(w.run_pass()[0])
        finally:
            tracer.uninstall()
        assert traced == plain
        summary = tracer.summary()
        summaries.append({k: v for k, v in summary.items() if k != "self_s"})
    assert summaries[0] == summaries[1]
    assert summaries[0]["calls"]


def test_counts_repeat_across_traced_runs(runs):
    a, b = (result(p)["metrics"] for p in runs["trace"])
    counts = [n for n, m in a.items() if m["unit"] in ("count", "1") and n != "trace.overhead_ratio"]
    assert counts
    assert {n: a[n] for n in counts} == {n: b[n] for n in counts}


def test_every_metric_is_declared(runs):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    assert set(declared) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert [w["name"] for w in declared["workloads"]] == list(spec.WORKLOADS)
    for section, procs in (("end_to_end", [runs["plain"]]), ("per_layer", runs["trace"])):
        want = {m["name"]: m["unit"] for m in declared[section]}
        for m in declared[section]:
            assert m["better"] in ("lower", "higher")
        for proc in procs:
            got = result(proc)
            assert set(got) == {"correct", "attempted", "failed", "metrics"}
            assert got["correct"] and got["failed"] == 0
            assert {n: m["unit"] for n, m in got["metrics"].items()} == want


def test_reproduce_grading_rejects_an_unknown_failure():
    rows = [{"name": "table2: N=14 estimate", "passed": True}]
    assert run._grade_reproduce("table2", 0, "PASS  N=14 estimate: computed 1", rows) is None
    assert "FAIL" in run._grade_reproduce("table2", 3, "FAIL  N=14 estimate: computed 1", rows)
    known = [{"name": n, "passed": False} for n in sorted(spec.KNOWN_FAILURES)]
    text = "\n".join(f"FAIL  {n.split(': ', 1)[1]}: computed 1" for n in sorted(spec.KNOWN_FAILURES))
    assert run._grade_reproduce("table1", 3, text, known) is None
    assert run._grade_reproduce("table1", 0, text, known) is not None


@pytest.fixture
def checkout():
    """A scratch copy of BENCHMARK.json and perfbench, inside the ignored .perfbench/."""
    path = ROOT / ".perfbench" / "selftest"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", path)
    shutil.copytree(HERE, path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_fails_without_the_package(checkout):
    proc = bench("--workload", CHEAP, "--seed", "1", "--seconds", "1", "--trace", "0", cwd=checkout)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_exits_nonzero_when_a_new_row_fails(checkout):
    shutil.copytree(ROOT / "src", checkout / "src", ignore=shutil.ignore_patterns("__pycache__"))
    classical = checkout / "src" / "borelsum" / "classical.py"
    text = classical.read_text()
    assert "estimate = e.a0 + e.lam * total\n" in text
    classical.write_text(text.replace("estimate = e.a0 + e.lam * total\n",
                                      "estimate = e.a0 + e.lam * total * (1 + mp.mpf(10) ** -6)\n"))
    proc = bench("--workload", CHEAP, "--seed", "1", "--seconds", "1", "--trace", "0", cwd=checkout)
    assert proc.returncode != 0
    got = result(proc)
    assert not got["correct"] and got["failed"] > 0
