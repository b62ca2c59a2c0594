"""Record a benchmark claim: alternating runs of two trees, judged per metric.

    python3 scripts/bench_pairs.py PARENT [CHANGE] [--unseen SEED] [--commit TEXT]

PARENT and CHANGE are git revisions; CHANGE defaults to the working tree (its
tracked files and the untracked ones .gitignore keeps), as it is on disk.  Each
side is exported without .git to a temporary directory.  For each workload
BENCHMARK.json lists, seeds 1-10 give one parent run and one change run each of

    python3 perfbench/run.py --workload W --seed S --seconds <run_seconds>

the parent first at odd seeds and the change first at even ones, one run at a
time; the last stdout line of a run is its JSON result.  ``--unseen S`` runs
one more pair at seed S, the parent first, which counts as every other pair.
A run that exits nonzero stops the script, and no file is written.  Nothing
under perfbench/ changes.

Per workload it prints the operations each side failed.  Per end-to-end metric
it prints the pairs the change won (a tie counts for neither side), the change
of the median, the parent's interquartile range and two verdicts.  "gain": the
change won at least 9 in 10 of all pairs run, its median moved the better way
by more than the parent IQR, and it failed no more operations than the parent.
The bound verdict of BENCHMARK.json: "worse" when the change's median is worse
than the parent's by more than the bound (relative to the parent's median),
"unresolved" when the parent's IQR is wider than the bound and not every
change run beats every parent run, else "within".  It writes
BENCH_<workload>.json with the keys workload, commit, parent_commit, command,
protocol, env, metrics and runs.  Per workload it also runs one pair at seed 1
with ``--trace 1`` (not written) and prints every per-layer metric of both
sides.  Last it prints its own wall time.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PAIRS = 10
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True,
                          text=True).stdout


def export(rev: str | None, dest: Path) -> None:
    """The tree of ``rev`` (None: the working tree as it is on disk) at ``dest``, without .git."""
    dest.mkdir(parents=True)
    if rev is None:
        for name in git("ls-files", "-z", "-co", "--exclude-standard").split("\0"):
            if name and (ROOT / name).is_file():
                (dest / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(ROOT / name, dest / name)
        return
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", rev], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    if archive.wait():
        sys.exit(f"git archive {rev} failed")


def bench(tree: Path, workload: str, seed: int, trace: int = 0) -> tuple[dict, str]:
    """(the JSON result, the env line) of one run in ``tree``; exits on a nonzero run."""
    argv = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if proc.returncode:
        sys.exit(f"{' '.join(argv)} in {tree} exited {proc.returncode}; no file written\n"
                 f"{proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), next((x for x in lines if x.startswith("env: ")), "")


def quartiles(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def judge(name: str, better: str, bound: float, parent: list[float],
          change: list[float], failed: tuple[int, int] = (0, 0)) -> str:
    """One printed line: pairs won, median change, parent IQR and both verdicts.
    ``parent[i]`` and ``change[i]`` are pair i; ``failed`` is the operations each
    side failed over all its runs."""
    sign = 1 if better == "lower" else -1  # sign * (change - parent) < 0 is better
    won = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    p, c = quartiles(parent), quartiles(change)
    iqr, gap = p["q3"] - p["q1"], c["median"] - p["median"]
    gain = (won >= 0.9 * len(parent) and sign * gap < 0 and abs(gap) > iqr
            and failed[1] <= failed[0])
    base = abs(p["median"]) or 1.0
    worse = sign * gap / base
    if worse > bound:
        verdict = f"worse by {worse:.1%} > bound {bound:g}"
    elif iqr / base > bound and not all(sign * (x - y) < 0 for x in change for y in parent):
        verdict = f"unresolved: parent IQR {iqr / base:.1%} > bound {bound:g}"
    else:
        verdict = f"within bound {bound:g}"
    return (f"  {name:14s} won {won:2d}/{len(parent)}  median {p['median']:.6g} -> "
            f"{c['median']:.6g} ({gap / base:+.1%})  parent IQR {iqr:.3g}  "
            f"{'gain' if gain else 'no gain'}; {verdict}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change", nargs="?")
    ap.add_argument("--unseen", type=int)
    ap.add_argument("--commit", help="what the change is, for the file's commit key")
    args = ap.parse_args(argv)
    if args.unseen is not None and args.unseen <= PAIRS:
        ap.error(f"--unseen needs a seed past the paired seeds 1-{PAIRS}")
    started = time.monotonic()
    workloads = [w["name"] for w in BENCHMARK["workloads"]]
    metrics = BENCHMARK["end_to_end"]
    parent_commit = git("rev-parse", args.parent).strip()
    commit = args.commit or (f"the working tree on top of {parent_commit}" if args.change is None
                             else git("rev-parse", args.change).strip())
    records = {}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        export(args.parent, trees["parent"])
        export(args.change, trees["change"])
        for workload in workloads:
            runs, env = [], ""
            seeds = [*range(1, PAIRS + 1), *([args.unseen] if args.unseen else [])]
            for seed in seeds:
                first = "change" if seed <= PAIRS and seed % 2 == 0 else "parent"
                for side in (first, "change" if first == "parent" else "parent"):
                    result, env_line = bench(trees[side], workload, seed)
                    env = env or (env_line if side == "change" else "")
                    runs.append({"side": side, "seed": seed, "exit": 0,
                                 "attempted": result["attempted"], "failed": result["failed"],
                                 **{k: v["value"] for k, v in result["metrics"].items()}})
                    print(f"{workload} seed {seed} {side}: " + ", ".join(
                        f"{m['name']} {runs[-1][m['name']]:.6g}" for m in metrics), flush=True)
            failed = tuple(sum(r["failed"] for r in runs if r["side"] == s)
                           for s in ("parent", "change"))
            print(f"{workload}: {len(seeds)} pairs; failed operations {failed[0]} -> "
                  f"{failed[1]}")
            table = {}
            for m in metrics:
                side = {s: [r[m["name"]] for r in runs if r["side"] == s]
                        for s in ("parent", "change")}
                print(judge(m["name"], m["better"], m["bound"], side["parent"],
                            side["change"], failed))
                table[m["name"]] = {"unit": m["unit"], "better": m["better"],
                                    "change": quartiles(side["change"]),
                                    "parent": quartiles(side["parent"])}
            layers = {side: bench(trees[side], workload, 1, trace=1)[0]["metrics"]
                      for side in ("parent", "change")}
            print(f"{workload}: one traced pair at seed 1, parent -> change")
            for name, got in layers["parent"].items():
                after = layers["change"].get(name, {}).get("value", float("nan"))
                print(f"  {name:45s} {got['value']:>12.6g} -> {after:>12.6g} {got['unit']}")
            unseen = f"; plus one pair at seed {args.unseen}, a seed not used while the change " \
                     "was written, the parent first, counted as every other pair" \
                     if args.unseen else ""
            records[workload] = {
                "workload": workload, "commit": commit, "parent_commit": parent_commit,
                "command": f"python3 perfbench/run.py --workload {workload} --seed SEED "
                           f"--seconds {BENCHMARK['run_seconds']:g}",
                "protocol": "times in reference seconds (perfbench/clock.py); env's git_commit "
                            "is null because each side ran from a copy of the tree without "
                            f".git; seeds 1-{PAIRS}, one parent run and one change run per "
                            "seed, each in its own copy of the tree, the parent first at odd "
                            "seeds and the change first at even seeds, one run at a time; "
                            "quartiles by statistics.quantiles(n=4); recorded by "
                            "scripts/bench_pairs.py" + unseen,
                "env": env, "metrics": table, "runs": runs}
    for workload, record in records.items():
        (ROOT / f"BENCH_{workload}.json").write_text(json.dumps(record, indent=2) + "\n")
        print(f"wrote BENCH_{workload}.json")
    print(f"wall time {time.monotonic() - started:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
