"""Workload definitions shared by the benchmark runner and its child processes.

Nothing here imports borelsum, so the runner never loads the package it
measures: it only spawns, times and grades children.

Seeded points lie on a 1/8 grid: the CLI parses ``--z-mod``, ``--z-arg`` and
``--lambda`` as doubles, and grid values are exact doubles, so the library
passes and the CLI children sum at the same z.  Where a workload draws
several points, it draws one per band of its range, so that every seed costs
about the same.  Every workload also sums at a fixed anchor, the corner of its
seeded range where the fewest digits come out, so ``digits_min`` does not
depend on the draw.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("psi-branch-sweep", "ex2-generalized", "euler-factorial-oracle")

PRECISION_BITS = 256

# 2/ln 2 as the CLI receives it; the library sweep uses the same double.
PSI_LAMBDA = 2.885390081777927
PSI_N_RANGE = range(5, 41)
PSI_DEPTH = 3 * (PSI_N_RANGE[-1] + 2)  # branch depth N needs a_0..a_{3(N+2)}
PSI_REFERENCE_N = 75                    # flat N of the generalized reference sum

EX2_DEPTH = 160
EX2_N = 150
EX2_LAMBDA = "0.6"                      # decimal string, parsed at working precision

EULER_DEPTH = 202                       # a_0..a_202 feed b_0..b_201
EULER_N = 200
EULER_A, EULER_B = 4.0, 0.05            # growth envelope of 1/(1+zeta)

# Grading tolerances, fixed here so a later change cannot loosen them unseen.
# psi sweep row N at z: |branch_N - reference| <= PSI_TOL_FACTOR * (err_N + err_ref),
# with err the first-omitted-term estimates of the row and of the reference.
PSI_TOL_FACTOR = 2
# example2 rotated N=150 against quadrature, absolute.  Not heuristic_error:
# at this commit it undershoots the true deviation 14-25x (|z|=4.5: deviation
# 4.5e-6, heuristic 1.8e-7), a finding left for a correctness change.
EX2_ORACLE_TOL = 1e-5
# Euler N=200 against quadrature: within the rigorous r_fact bound and within
# EULER_HEURISTIC_FACTOR x the first-omitted-term estimate; r_fact_asymptotic
# within a factor EULER_ASYMPTOTIC_FACTOR of r_fact.
EULER_HEURISTIC_FACTOR = 2
EULER_ASYMPTOTIC_FACTOR = 2
# A CLI value computed by the same route as the library value: relative agreement.
CLI_ORACLE_RTOL = 1e-50                 # 79 printed digits
CLI_BOUNDS_RTOL = 1e-8                  # 10 printed digits

# Rows that fail at the commit that defined this benchmark.  The stored
# table1 N=40 digits match the depth-42 partial sum, not depth 40; the row is
# kept as an honest FAIL and counted in pass_ratio, but does not make a run
# incorrect.  Any other failing row does.
KNOWN_FAILURES = frozenset({"table1: N=40 estimate", "table1: N=40 error"})

REPRODUCE_TARGETS = {
    "psi-branch-sweep": ("table1", "table2", "leastterm-psi"),
    "ex2-generalized": ("table3", "table4", "table5"),
    "euler-factorial-oracle": ("fig2",),
}


def _grid(rng: random.Random, lo: float, hi: float) -> float:
    return rng.randint(round(lo * 8), round(hi * 8)) / 8


def points(workload: str, seed: int) -> list[tuple[float, float]]:
    """(modulus, argument) of every summation point; the first is the anchor."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "psi-branch-sweep":
        # z = 12 is the stored tables' point; |z| = 10 is the anchor.
        return [(10.0, 0.0), (12.0, 0.0), (_grid(rng, 10, 14), 0.0)]
    if workload == "ex2-generalized":
        return [(4.5, 0.0), (_grid(rng, 4.5, 6.125), 0.0), (_grid(rng, 6.25, 8), 0.0)]
    if workload == "euler-factorial-oracle":
        # one point per band of Re z: quadrature and log-gamma costs depend on z
        pts = [(2.5, 0.0)]
        for band in range(8):
            lo, hi = 2.5 + band * 0.9375, 2.5 + (band + 1) * 0.9375
            while True:
                mod, arg = _grid(rng, 2.5, 10.5), _grid(rng, -1, 1)
                re, im = mod * math.cos(arg), mod * math.sin(arg)
                if arg != 0 and lo <= re < hi and abs(im) <= 3:
                    pts.append((mod, arg))
                    break
        return pts
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def cold_commands(workload: str, pts) -> list[dict]:
    """The cold CLI list: one fresh ``python -m borelsum.cli`` process each.

    ``kind`` tells the runner how to grade the output; ``point`` indexes
    ``pts``.  ``reproduce`` exits 3 exactly when a row fails.
    """
    cmds = []
    if workload == "psi-branch-sweep":
        for i, (mod, _) in enumerate(pts):
            cmds.append({"kind": "psi-table", "point": i, "argv": [
                "table", "--builtin", "psi", "--method", "branch",
                "--lambda", repr(PSI_LAMBDA), f"--z-mod={mod!r}",
                "--N-range", f"{PSI_N_RANGE[0]}:{PSI_N_RANGE[-1]}", "--format", "json"]})
    elif workload == "euler-factorial-oracle":
        for i, (mod, arg) in enumerate(pts):
            where = [f"--z-mod={mod!r}", f"--z-arg={arg!r}", "--format", "json"]
            cmds.append({"kind": "euler-factorial", "point": i, "argv": [
                "sum", "--builtin", "euler", "--method", "factorial",
                "--N", str(EULER_N), "--depth", "210",
                "--A", repr(EULER_A), "--B", repr(EULER_B)] + where})
            cmds.append({"kind": "euler-oracle", "point": i, "argv": [
                "sum", "--builtin", "euler", "--method", "oracle"] + where})
    for target in REPRODUCE_TARGETS[workload]:
        cmds.append({"kind": "reproduce", "target": target, "argv": ["reproduce", target]})
    if workload == "euler-factorial-oracle":
        cmds.append({"kind": "compare-bounds", "argv": ["compare-bounds", "--format", "json"]})
    return cmds
