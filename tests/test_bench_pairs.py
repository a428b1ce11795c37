"""The summary of tools/bench_pairs.py on fixed runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def run(pair, side, wall, setup, ops, failed=0):
    return {"workload": "w", "pair": pair, "side": side,
            "result": {"correct": True, "attempted": 8, "failed": failed,
                       "metrics": {"wall_s": {"value": wall, "unit": "s"},
                                   "setup_s": {"value": setup, "unit": "s"}}},
            "op_seconds": ops}


RUNS = [
    run(0, "parent", 0.30, 0.40, {"a": [0.010, 0.012]}),
    run(0, "change", 0.25, 0.41, {"a": [0.004, 0.006]}),
    # odd pairs run the change first; the order of runs does not matter
    run(1, "change", 0.24, 0.39, {"a": [0.005]}),
    run(1, "parent", 0.28, 0.40, {"a": [0.011]}),
    run(2, "parent", 0.29, 0.38, {"a": [0.013]}),
    run(2, "change", 0.31, 0.42, {"a": [0.003]}, failed=1),
    run(3, "parent", 0.32, 0.41, {"a": [0.012]}),
    run(3, "change", 0.26, 0.40, {"a": [0.004]}),
]


def test_summary_of_fixed_runs():
    got = bench_pairs.summarize(RUNS)["w"]
    wall = got["wall_s"]
    assert wall["parent_values"] == [0.30, 0.28, 0.29, 0.32]
    assert wall["change_values"] == [0.25, 0.24, 0.31, 0.26]
    assert wall["parent_median"] == pytest.approx(0.295)
    assert wall["change_median"] == pytest.approx(0.255)
    assert wall["change_vs_parent_pct"] == pytest.approx(100 * (0.255 / 0.295 - 1))
    # numpy.percentile's linear rule: 0.28 + 0.75 * 0.01 and 0.30 + 0.25 * 0.02
    assert wall["parent_quartiles"] == pytest.approx([0.2875, 0.305])
    assert wall["change_lower_in"] == 3 and wall["pairs"] == 4
    setup = got["setup_s"]
    assert setup["change_lower_in"] == 2
    assert setup["parent_median"] == pytest.approx(0.40)
    assert got["attempted_failed_correct"] == {
        "parent": [(8, 0, True)], "change": [(8, 0, True), (8, 1, True)]}
    # over every round of every run of a side
    assert got["op_medians_ms"]["a"] == pytest.approx(
        {"parent": 12.0, "change": 4.0})


def test_unpaired_run_is_left_out():
    got = bench_pairs.summarize(RUNS + [run(4, "parent", 9.0, 9.0, {})])
    assert got["w"]["wall_s"]["pairs"] == 4
    assert got["w"]["wall_s"]["parent_median"] == pytest.approx(0.295)


END_TO_END = [{"name": "wall_s", "better": "lower", "bound": 0.25},
              {"name": "setup_s", "better": "lower", "bound": 0.25}]


def test_fixed_runs_are_within_bound():
    got = bench_pairs.add_verdicts(bench_pairs.summarize(RUNS), END_TO_END)["w"]
    assert got["wall_s"]["verdict"] == got["setup_s"]["verdict"] == "within bound"


@pytest.mark.parametrize("parent, change, better, want", [
    # the change's median 1.3 is 30% above the parent's 1.0
    ([1.0, 1.0, 1.01, 0.99], [1.3, 1.3, 1.29, 1.31], "lower", "worse"),
    ([1.0, 1.0, 1.01, 0.99], [0.7, 0.7, 0.71, 0.69], "higher", "worse"),
    # 20% above: inside the bound, and the parent's spread is narrow
    ([1.0, 1.0, 1.01, 0.99], [1.2, 1.2, 1.21, 1.19], "lower", "within bound"),
    # parent quartiles 1.75 and 3.25: 1.5 apart, above 0.25 x 2.5
    ([1.0, 2.0, 3.0, 4.0], [2.0, 2.5, 3.0, 2.0], "lower", "unresolved"),
    # the same spread, but every change run beats every parent run
    ([1.0, 2.0, 3.0, 4.0], [0.5, 0.6, 0.7, 0.8], "lower", "within bound"),
    ([1.0, 2.0, 3.0, 4.0], [4.5, 4.6, 4.7, 4.8], "higher", "within bound"),
])
def test_verdict(parent, change, better, want):
    assert bench_pairs.verdict(parent, change, better, 0.25) == want
