"""Benchmark of borelsum: one seeded workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The package runs from ``src`` through
``PYTHONPATH``; nothing is installed.  The loop is closed with one client:
the runner starts one child at a time and waits for it, so at most the runner
and one child are alive, both on one CPU.  With ``--trace 0`` the last line of standard output
is a JSON object carrying every end-to-end metric; with ``--trace 1`` it
carries every per-layer metric.  Every output is graded; the exit code is
nonzero when a row fails that did not fail when this benchmark was defined.
Times are reported in reference seconds, rescaled by the speed of the CPU
while they ran (see clock.py).

Workloads, metrics and the reasons for them are in BENCHMARK.json;
perfbench/baseline.json holds the first measured values and the predictions
of which metric each layer should move.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402
from clock import SpeedSampler  # noqa: E402
import tracing  # noqa: E402

SETUP_SAMPLES = 5
RUN_BUDGET_S = 170.0  # every child is killed before the run reaches 180 s
UNITS = {"setup_s": "s", "cold_cli_s": "s", "first_pass_s": "s", "warm_pass_s": "s",
         "peak_rss_mb": "MB", "pass_ratio": "1", "digits_min": "digits"}


class Runner:
    def __init__(self, root: Path, workload: str, seed: int, seconds: float, traced: bool):
        self.root, self.workload, self.seed = root, workload, seed
        self.seconds, self.traced = seconds, traced
        self.tmp = root / ".perfbench" / f"run-{os.getpid()}"
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.child_env = dict(os.environ)
        self.child_env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", os.environ.get("PYTHONPATH")) if p)
        self.rss_mb = 0.0
        self.rows: list[dict] = []
        self.lib: dict | None = None
        self.n_children = 0

    def spawn(self, argv: list[str]) -> tuple[tuple[float, float], int, Path]:
        """Run one child to completion: ((start, end) on ``time.monotonic``,
        exit code, stdout path).

        The child is reaped with ``os.wait4`` for its own peak RSS, and is
        killed if the run's time budget runs out.
        """
        self.n_children += 1
        out = self.tmp / f"child-{self.n_children}.out"
        with open(out, "wb") as fout, open(out.with_suffix(".err"), "wb") as ferr:
            start = time.monotonic()
            proc = subprocess.Popen(argv, stdout=fout, stderr=ferr, env=self.child_env,
                                    cwd=self.root)
            lock, done = threading.Lock(), []

            def on_timeout():
                with lock:
                    if not done:
                        proc.kill()

            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), on_timeout)
            timer.start()
            # wait without reaping, so a late kill can only hit a zombie
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            end = time.monotonic()
            with lock:
                done.append(True)
            timer.cancel()
            timer.join()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.rss_mb = max(self.rss_mb, usage.ru_maxrss / 1024)
        return (start, end), proc.returncode, out

    def child(self, *args) -> list[str]:
        return [sys.executable, str(HERE / "child.py"), *map(str, args)]

    def fail(self, name: str, out: Path | None = None) -> None:
        self.rows.append({"name": name, "passed": False, "digits": None})
        if out is not None:
            tail = out.with_suffix(".err").read_text(errors="replace")[-2000:]
            print(f"{name}; stderr tail:\n{tail}", file=sys.stderr)

    def run(self) -> dict:
        with SpeedSampler() as sampler:
            timed = self.run_children()
        lib = self.lib

        def ref(spans) -> float:
            return sum(sampler.rescale(*span) for span in spans)

        def wall(spans) -> float:
            return sum(end - start for start, end in spans)

        failed = [r["name"] for r in self.rows
                  if not r["passed"] and r["name"] not in spec.KNOWN_FAILURES]
        known = [r["name"] for r in self.rows
                 if not r["passed"] and r["name"] in spec.KNOWN_FAILURES]
        for name in failed:
            print(f"FAIL  {name}", file=sys.stderr)
        if known:
            print("known failures at the defining commit: " + "; ".join(known))
        if self.traced:
            overhead = 0.0
            if lib:
                overhead = (statistics.median(map(ref, lib["traced_passes"]))
                            / statistics.median(map(ref, lib["warm_passes"])))
            metrics = tracing.per_layer_metrics(
                tracing.combine([lib["trace"]] if lib else []),
                tracing.combine(timed["cold_traces"]), overhead)
            trace_path = self.root / ".perfbench" / f"trace-{self.workload}-{self.seed}.jsonl"
            with open(trace_path, "w", encoding="utf-8") as fh:
                fh.writelines(json.dumps(s) + "\n" for s in timed["spans"])
            units = {name: tracing.unit(name) for name in metrics}
        else:
            digits = [r["digits"] for r in self.rows if r["digits"] is not None]
            metrics = {
                "setup_s": statistics.median(ref([span]) for span in timed["setup"]),
                "cold_cli_s": ref(timed["cold"]),
                "first_pass_s": ref(lib["first_pass"]) if lib else 0.0,
                "warm_pass_s": statistics.median(map(ref, lib["warm_passes"])) if lib else 0.0,
                "peak_rss_mb": self.rss_mb,
                "pass_ratio": sum(r["passed"] for r in self.rows) / len(self.rows),
                "digits_min": min(digits) if digits else 0.0,
            }
            units = UNITS
            if lib:
                print("wall seconds before rescaling: " + json.dumps({
                    "setup_s": statistics.median(wall([span]) for span in timed["setup"]),
                    "cold_cli_s": wall(timed["cold"]), "first_pass_s": wall(lib["first_pass"]),
                    "warm_pass_s": statistics.median(map(wall, lib["warm_passes"]))}))
        print("env: " + json.dumps(self.environment(lib)))
        for name, value in metrics.items():
            print(f"{name:45s} {value:>14.6g} {units[name]}")
        return {"correct": not failed, "attempted": len(self.rows), "failed": len(failed),
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}

    def run_children(self) -> dict:
        """Set-up samples, the library process and the cold command list, one
        child at a time; grades every output into ``self.rows``."""
        pts = spec.points(self.workload, self.seed)
        timed = {"setup": [], "cold": [], "cold_traces": [], "spans": []}
        if not self.traced:
            for i in range(SETUP_SAMPLES):
                span, code, out = self.spawn(self.child("setup", self.workload, self.seed))
                timed["setup"].append(span)
                if code != 0:
                    self.fail(f"setup sample {i} exited {code}", out)
        lib_out = self.tmp / "library.json"
        _, code, out = self.spawn(self.child("library", self.workload, self.seed,
                                             self.seconds, int(self.traced), lib_out))
        self.lib = lib = json.loads(lib_out.read_text()) if code == 0 else None
        if lib is None:
            self.fail(f"library process exited {code}", out)
        else:
            self.rows += lib["rows"]
            timed["spans"] += lib.get("spans", [])
        for i, cmd in enumerate(spec.cold_commands(self.workload, pts)):
            trace_out = self.tmp / f"cold-{i}.json"
            argv = (self.child("cli", trace_out, *cmd["argv"]) if self.traced
                    else [sys.executable, "-m", "borelsum.cli", *cmd["argv"]])
            span, code, out = self.spawn(argv)
            timed["cold"].append(span)
            name = "cli " + " ".join(cmd["argv"])
            problem = "no library result" if lib is None else grade_cold(
                cmd, code, out.read_text(errors="replace"), lib)
            if problem:
                self.fail(f"{name}: {problem}", out)
            else:
                self.rows.append({"name": name, "passed": True, "digits": None})
            if self.traced and trace_out.exists():
                got = json.loads(trace_out.read_text())
                timed["cold_traces"].append(got["trace"])
                timed["spans"] += [dict(s, proc=f"cli-{i}") for s in got["spans"]]
        return timed

    def environment(self, lib: dict | None) -> dict:
        commit = None
        if (self.root / ".git").exists():  # git would otherwise search the parents
            try:
                commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=self.root, timeout=10,
                                        capture_output=True, text=True).stdout.strip() or None
            except (OSError, subprocess.SubprocessError):
                pass
        return {"workload": self.workload, "seed": self.seed, "seconds": self.seconds,
                "trace": int(self.traced), "nproc": os.cpu_count(),
                "python": sys.version.split()[0], "precision_bits": spec.PRECISION_BITS,
                **(lib["env"] if lib else {}), "git_commit": commit}


# ---------------------------------------------------------------------------
# grading of cold CLI output against the library process's references;
# exact rational arithmetic on the printed decimals
# ---------------------------------------------------------------------------

def _abs2(re: Fraction, im: Fraction) -> Fraction:
    return re * re + im * im


def grade_cold(cmd: dict, code: int, text: str, lib: dict) -> str | None:
    """None when the command's output and exit code are right, else the reason."""
    kind = cmd["kind"]
    if kind == "reproduce":
        return _grade_reproduce(cmd["target"], code, text, lib["rows"])
    if code != 0:
        return f"exit code {code}"
    try:
        records = json.loads(text)
    except json.JSONDecodeError:
        return "output is not JSON"
    refs = lib["refs"]
    if kind == "psi-table":
        ref = refs["psi"][cmd["point"]]
        if [r["N"] for r in records] != list(spec.PSI_N_RANGE):
            return "rows are not N = 5..40"
        for r in records:
            dev2 = _abs2(Fraction(r["estimate"]["re"]) - Fraction(ref["value"]),
                         Fraction(r["estimate"]["im"]))
            tol = spec.PSI_TOL_FACTOR * (Fraction(r["heuristic_error"]) + Fraction(ref["error"]))
            if dev2 > tol * tol:
                return f"row N={r['N']} off the generalized reference"
        return None
    if kind in ("euler-factorial", "euler-oracle"):
        (r,) = records
        re, im = refs["oracle"][cmd["point"]]
        dev2 = _abs2(Fraction(r["estimate"]["re"]) - Fraction(re),
                     Fraction(r["estimate"]["im"]) - Fraction(im))
        if kind == "euler-oracle":
            tol2 = Fraction(spec.CLI_ORACLE_RTOL) ** 2 * _abs2(Fraction(re), Fraction(im))
        else:
            tol = min(Fraction(r["rigorous_bound"]),
                      spec.EULER_HEURISTIC_FACTOR * Fraction(r["heuristic_error"]))
            tol2 = tol * tol
        return None if dev2 <= tol2 else "estimate off the quadrature reference"
    if kind == "compare-bounds":
        want = refs["bounds"]
        if [r["n"] for r in records] != [r["n"] for r in want]:
            return "rows differ from the library table"
        for got, ref in zip(records, want):
            for key in ("log10_r_as_ln2", "log10_r_as_halfpi", "log10_r_fact"):
                if abs(Fraction(got[key]) - Fraction(ref[key])) > \
                        Fraction(spec.CLI_BOUNDS_RTOL) * abs(Fraction(ref[key])):
                    return f"n={got['n']} {key} differs from the library table"
        return None
    return f"unknown command kind {kind!r}"


def _grade_reproduce(target: str, code: int, text: str, lib_rows: list[dict]) -> str | None:
    status = {}
    for line in text.splitlines():
        word, _, rest = line.partition("  ")
        if word in ("PASS", "FAIL"):
            status[f"{target}: {rest.split(': computed')[0]}"] = word == "PASS"
    expected = [r["name"] for r in lib_rows if r["name"].startswith(f"{target}: ")]
    if sorted(status) != sorted(expected):
        return "rows differ from the library run"
    unknown = [n for n, ok in status.items() if not ok and n not in spec.KNOWN_FAILURES]
    if unknown:
        return "FAIL: " + "; ".join(unknown)
    want_code = 0 if all(status.values()) else 3
    return None if code == want_code else f"exit code {code}, expected {want_code}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "borelsum" / "__init__.py").is_file():
        print("error: run from the repository root; src/borelsum not found", file=sys.stderr)
        return 2
    # the runner's speed probes and every child share one CPU (see clock.py)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    runner = Runner(root, args.workload, args.seed, args.seconds, bool(args.trace))
    runner.tmp.mkdir(parents=True)
    try:
        result = runner.run()
    finally:
        shutil.rmtree(runner.tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
