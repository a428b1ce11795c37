"""Repeat the benchmark over seeds and print medians, spreads and layer shares.

    python3 benchmark/spread.py --seeds 1-10
    python3 benchmark/spread.py --workloads engine_columns --seeds 1-5 --trace 1

Run from the root of the repository.  For each workload it runs
benchmark/run.py once per seed, one run at a time, for the `run_seconds` of
BENCHMARK.json, and prints for every
metric the median, the quartiles and the spread (quartile distance over the
median), and the share of failed operations.  With `--trace 1` it also prints
each per-layer time as a share of the workload's top-level span.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent
RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())[
    "run_seconds"]
TOP_SPAN = {"bochner_l1": "columns.l1_norm_s",
            "restriction_radial": "radial.column_norms_s",
            "engine_columns": "engine.apply_multiplier_s"}


def seed_list(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(RUN_SECONDS),
         "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, args.trace)
                for seed in seed_list(args.seeds)]
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"{workload}: {len(runs)} runs, correct="
              f"{all(r['correct'] for r in runs)}, failed share {shares}")
        top = statistics.median(r["metrics"][TOP_SPAN[workload]]["value"]
                                for r in runs) if args.trace else None
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            med = statistics.median(values)
            line = f"  {name:28s} median {med:12.6g} {unit:5s}"
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / abs(med) if med else 0.0
                line += f" q1 {q1:10.6g} q3 {q3:10.6g} spread {spread:7.2%}"
            if top and unit == "s":
                line += f" share {med / top:7.2%}"
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
