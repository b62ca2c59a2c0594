"""The verdicts scripts/bench_pairs.py prints for a benchmark claim, on fixed
numbers: the gain rule and the bound verdict of BENCHMARK.json."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

# psi-branch-sweep warm_pass_s of the change that keeps one term row per point
# (parent 5718ddf, change b1acd04), reference s: seeds 1-10, then unseen seed 23
_PARENT = [0.0781, 0.0775, 0.0733, 0.0807, 0.0757, 0.0765, 0.0757, 0.0788, 0.0807, 0.0762,
           0.0804]
_CHANGE = [0.0549, 0.0555, 0.0535, 0.0544, 0.0540, 0.0526, 0.0564, 0.0544, 0.0549, 0.0554,
           0.0551]
# ten parent runs 1.00..1.09 (IQR 0.0525) and a change 0.5 lower
_TEN = [1 + i / 100 for i in range(10)]


def test_a_recorded_claim_is_a_gain_within_its_bound():
    line = bench_pairs.judge("warm_pass_s", "lower", 0.2, _PARENT, _CHANGE, (0, 0))
    assert "won 11/11" in line and "no gain" not in line
    assert line.endswith("gain; within bound 0.2")


def test_a_change_that_fails_more_operations_is_no_gain():
    line = bench_pairs.judge("warm_pass_s", "lower", 0.2, _PARENT, _CHANGE, (0, 1))
    assert "won 11/11" in line and "no gain; within bound 0.2" in line


@pytest.mark.parametrize("lost, gain", [(0, True), (1, True), (2, False)])
def test_a_gain_needs_nine_in_ten_pairs(lost, gain):
    change = [p + 0.01 if i < lost else p - 0.5 for i, p in enumerate(_TEN)]
    line = bench_pairs.judge("m", "lower", 10, _TEN, change)
    assert f"won {10 - lost:2d}/10" in line and ("no gain" not in line) is gain


def test_a_gain_needs_the_median_past_the_parent_iqr():
    # every pair won, by less than the parent's spread
    line = bench_pairs.judge("m", "lower", 10, _TEN, [p - 0.05 for p in _TEN])
    assert "won 10/10" in line and "no gain" in line
    line = bench_pairs.judge("m", "lower", 10, _TEN, [p - 0.06 for p in _TEN])
    assert "no gain" not in line


def test_higher_is_better_where_the_metric_says_so():
    line = bench_pairs.judge("m", "higher", 0.1, _TEN, [p + 0.5 for p in _TEN])
    assert "won 10/10" in line and "no gain" not in line
    line = bench_pairs.judge("m", "higher", 0.1, _TEN, [p - 0.5 for p in _TEN])
    assert "won  0/10" in line and "worse by 47.8% > bound 0.1" in line


def test_the_bound_verdicts():
    assert "worse by 50.0% > bound 0.2" in bench_pairs.judge(
        "m", "lower", 0.2, [1.0] * 10, [1.5] * 10)
    assert bench_pairs.judge("m", "lower", 0.2, [1.0] * 10, [1.1] * 10).endswith(
        "within bound 0.2")
    # a parent spread wider than the bound, the sides interleaved
    spread = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
    assert "unresolved: parent IQR 100.0% > bound 0.2" in bench_pairs.judge(
        "m", "lower", 0.2, spread, spread[::-1])
    # unless every change run beats every parent run
    assert bench_pairs.judge("m", "lower", 0.2, spread, [0.5] * 10).endswith(
        "within bound 0.2")
