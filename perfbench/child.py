"""Child processes of the benchmark.

    python3 perfbench/child.py setup WORKLOAD SEED
    python3 perfbench/child.py library WORKLOAD SEED SECONDS TRACE OUT
    python3 perfbench/child.py cli OUT CLI-ARGS...

Run from the repository root with ``src`` on ``PYTHONPATH``.  ``setup``
imports borelsum, builds the workload's input series and exits; the runner
times it from outside.  ``library`` is the warm library process: set-up, one
first pass that fills the exact caches, later passes for SECONDS, then
grading outside every timed region; it writes a JSON result to OUT.  With
TRACE = 1 the set-up and first pass run under the tracer and the later passes
alternate untraced and traced, giving the tracing overhead.  ``cli`` runs one
CLI command in-process under the tracer, writes its spans to OUT and exits
with the command's exit code.
"""

from __future__ import annotations

import json
import sys
import time

import spec
from tracing import Tracer

# ``workloads`` imports borelsum, so it is imported only by the modes that
# need it: ``cli`` times a cold import of the package itself.

def setup(workload: str, seed: int) -> None:
    import workloads
    workloads.BY_NAME[workload](spec.points(workload, seed))


def library(workload: str, seed: int, seconds: float, traced: bool, out_path: str) -> None:
    import mpmath

    import workloads
    cls = workloads.BY_NAME[workload]
    tracer = Tracer() if traced else None
    if tracer:
        tracer.install()
    w = cls(spec.points(workload, seed))
    if tracer:
        tracer.pass_id = "first"
    first, first_steps = w.run_pass()
    if tracer:
        tracer.uninstall()
    warm, traced_warm = [], []
    traced_out = None
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline or len(warm) < 2:
        last, steps = w.run_pass()
        warm.append(steps)
        if tracer:
            overhead_tracer = Tracer()
            overhead_tracer.install()
            try:
                traced_out, steps = w.run_pass()
                traced_warm.append(steps)
            finally:
                overhead_tracer.uninstall()
    rows, refs = w.grade(first)
    rows.append({"name": "later passes bit-identical to the first pass",
                 "passed": w.values(first) == w.values(last), "digits": None})
    result = {"first_pass": first_steps, "warm_passes": warm, "traced_passes": traced_warm,
              "rows": rows, "refs": refs,
              "env": {"mpmath": mpmath.__version__, "backend": mpmath.libmp.BACKEND}}
    if tracer:
        rows.append({"name": "traced pass bit-identical to untraced pass",
                     "passed": w.values(traced_out) == w.values(last), "digits": None})
        result["trace"] = tracer.summary()
        result["spans"] = tracer.span_records("library")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def cli(out_path: str, argv: list[str]) -> int:
    t0 = time.perf_counter()
    import borelsum.cli
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.counts["cli.import_s"] = import_s
    tracer.pass_id = "cold"
    tracer.install()
    code = 0
    try:
        with tracer.span("cli.main", "cli"):
            borelsum.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"trace": tracer.summary(), "spans": tracer.span_records("cli")}, fh)
    return code


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        setup(argv[1], int(argv[2]))
        return 0
    if mode == "library":
        library(argv[1], int(argv[2]), float(argv[3]), argv[4] == "1", argv[5])
        return 0
    if mode == "cli":
        return cli(argv[1], argv[2:])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
