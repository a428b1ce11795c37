"""Alternating parent/change pairs of benchmark runs, gathered into one file.

    python3 tools/bench_pairs.py --parent PARENT_DIR --change . --pairs 10 \\
        --seed0 3301 --out BENCH_33.json

PARENT_DIR and the change directory are two checkouts of the repository, for
example the parent commit unpacked by `git archive <rev> | tar -x -C DIR`.
For each workload that BENCHMARK.json (in the change checkout) lists, pair i
runs `benchmark/run.py --trace 0` once in each checkout, from that
checkout's root, for BENCHMARK.json's run_seconds and with the same seed;
every pair has its own seed.  Even pairs run the parent first, odd pairs the
change first, and within a pair index the workloads run in turn.  The output keeps each run's final JSON line and the
per-operation seconds of its rounds (from benchmark/out/), and summarizes
each end-to-end metric: the median and quartiles of each side, in how many
pairs the change was lower, and a verdict against BENCHMARK.json's bound
(verdict).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def quartiles(values):
    """First and third quartiles, numpy's default (linear) rule."""
    if len(values) < 2:
        return [values[0], values[0]]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [q[0], q[2]]


def summarize(runs) -> dict:
    """Per workload, each end-to-end metric over the pairs, both sides.

    runs is a list of dicts with keys workload, pair, side ("parent" or
    "change"), result (the final JSON line of benchmark/run.py) and
    op_seconds (op name -> seconds in each round).  A pair counts towards
    "change_lower_in" when the change's value is below the parent's.
    """
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        by_pair = {}
        for r in mine:
            by_pair.setdefault(r["pair"], {})[r["side"]] = r
        pairs = [p for _, p in sorted(by_pair.items()) if len(p) == 2]
        names = list(pairs[0]["parent"]["result"]["metrics"]) if pairs else []
        summary = {}
        for name in names:
            values = {side: [p[side]["result"]["metrics"][name]["value"]
                             for p in pairs] for side in SIDES}
            parent_median = statistics.median(values["parent"])
            change_median = statistics.median(values["change"])
            summary[name] = {
                "parent_values": values["parent"],
                "change_values": values["change"],
                "parent_median": parent_median,
                "change_median": change_median,
                "change_vs_parent_pct":
                    100.0 * (change_median / parent_median - 1.0),
                "parent_quartiles": quartiles(values["parent"]),
                "change_quartiles": quartiles(values["change"]),
                "change_lower_in": sum(c < p for p, c in zip(values["parent"],
                                                            values["change"])),
                "pairs": len(pairs),
            }
        summary["attempted_failed_correct"] = {
            side: sorted({(r["result"]["attempted"], r["result"]["failed"],
                           r["result"]["correct"])
                          for r in mine if r["side"] == side})
            for side in SIDES}
        ops = {}
        for r in mine:
            for op, seconds in r["op_seconds"].items():
                ops.setdefault(op, {s: [] for s in SIDES})[r["side"]] += seconds
        summary["op_medians_ms"] = {
            op: {side: 1e3 * statistics.median(v) for side, v in sides.items()
                 if v}
            for op, sides in sorted(ops.items())}
        out[workload] = summary
    return out


def verdict(parent, change, better: str, bound: float) -> str:
    """How one end-to-end metric of the change stands against the parent's.

    better is "lower" or "higher" and bound is relative, as BENCHMARK.json
    gives them.  "worse": the change's median is past the parent's, on the
    worse side, by more than bound times the parent's median.  "unresolved":
    the parent's interquartile distance is more than bound times its median,
    unless every change run beats every parent run.  "within bound":
    otherwise.
    """
    sign = 1.0 if better == "lower" else -1.0  # sign * value: lower is better
    median = statistics.median(parent)
    if sign * (statistics.median(change) - median) > bound * abs(median):
        return "worse"
    q1, q3 = quartiles(parent)
    if (q3 - q1 > bound * abs(median)
            and not max(sign * c for c in change) < min(sign * p for p in parent)):
        return "unresolved"
    return "within bound"


def add_verdicts(summary: dict, end_to_end) -> dict:
    """Put a verdict into each end-to-end metric of summarize's output.

    end_to_end is BENCHMARK.json's list of {name, better, bound}.
    """
    for metrics in summary.values():
        for spec in end_to_end:
            if spec["name"] in metrics:
                m = metrics[spec["name"]]
                m["verdict"] = verdict(m["parent_values"], m["change_values"],
                                       spec["better"], spec["bound"])
    return summary


def run_once(checkout: Path, workload: str, seed: int, seconds: float):
    """benchmark/run.py's final JSON line and its rounds' op seconds."""
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads((checkout / "benchmark" / "out"
                         / f"{workload}-seed{seed}-trace0.json").read_text())
    op_seconds = {}
    for rnd in detail["rounds"]:
        for op, s in rnd["op_seconds"].items():
            op_seconds.setdefault(op, []).append(s)
    return result, op_seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed0", type=int, required=True,
                        help="pair i of the k-th workload uses seed "
                             "seed0 + k * pairs + i")
    parser.add_argument("--workloads", nargs="*",
                        help="default: every workload in BENCHMARK.json")
    parser.add_argument("--note", default="", help="free text for the file")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    checkouts = {"parent": args.parent.resolve(),
                 "change": args.change.resolve()}
    runs = []
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for k, workload in enumerate(workloads):
            seed = args.seed0 + k * args.pairs + pair
            for side in order:
                result, op_seconds = run_once(checkouts[side], workload, seed,
                                              seconds)
                runs.append({"workload": workload, "pair": pair, "seed": seed,
                             "side": side, "first": side == order[0],
                             "result": result, "op_seconds": op_seconds})
                print(f"pair {pair} {workload} {side}: "
                      f"{json.dumps(result['metrics'])}", file=sys.stderr)
    args.out.write_text(json.dumps({
        "note": args.note,
        "command": "python3 benchmark/run.py --workload <w> --seed <seed> "
                   f"--seconds {seconds:g} --trace 0",
        "run_seconds": seconds,
        "pairs": args.pairs,
        "order": "even pairs run the parent first, odd pairs the change "
                 "first; within a pair index the workloads run in turn",
        "seeds": {w: [args.seed0 + k * args.pairs + i
                      for i in range(args.pairs)]
                  for k, w in enumerate(workloads)},
        "summary": add_verdicts(summarize(runs), spec["end_to_end"]),
        "runs": runs,
    }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
