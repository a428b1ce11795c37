"""Benchmark entry point: runs one workload for a while and prints its metrics.

    python3 benchmark/run.py --workload bochner_l1 --seed 1 --seconds 30 --trace 0

Run from the root of the repository.  Each round of the workload runs in a
fresh process (benchmark/child.py), one after another.  The number of rounds
follows from `--seconds` and the workload's round budget alone, so
every run of a workload at the same `--seconds` attempts the same operations
on any seed and host.  The last line printed is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.  `--trace 0` gives the end-to-end
metrics, `--trace 1` the per-layer metrics and the tracing overhead.  The
rounds' details go to benchmark/out/.  README.md describes the workloads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("bochner_l1", "restriction_radial", "engine_columns")
# BLAS threads per round process, fixed so that figures do not depend on the
# host's core count; one is steadier and no slower than two on a 2-core host.
# numpy's FFT (pocketfft) is single-threaded already.
THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# a run must end within 180 s; no round may outlive this deadline
DEADLINE_S = 170.0
# seconds of `--seconds` allotted to one untraced round: a run makes
# floor(seconds / budget) rounds, at least one (at least one pair when traced,
# as a traced round runs the round twice).  A round takes 6-7 s on
# bochner_l1 and engine_columns and 12-15 s on restriction_radial on a 2-core
# host; the radial budget is below that so that its median is over three
# rounds, as its time varies most.
ROUND_BUDGET_S = {"bochner_l1": 7.5, "restriction_radial": 10.0,
                  "engine_columns": 7.5}
# set-up is short and noisy: take its median over at least this many
# processes, one per round and the rest stopping after set-up
SETUP_SAMPLES = 7

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name == "trace.overhead_pct":
        return "%"
    return "s" if name.endswith("_s") else "count"


def round_count(workload: str, seconds: float, trace: int) -> int:
    budget = ROUND_BUDGET_S[workload]
    if trace:
        return 2 * max(1, math.floor(seconds / (4.0 * budget)))
    return max(1, math.floor(seconds / budget))


def run_round(args, index: int, env, deadline: float,
              setup_only: bool = False) -> dict:
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--round", str(index),
         "--trace", str(args.trace), "--t0", repr(t0)]
        + (["--setup-only"] if setup_only else []),
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - t0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"round {index} of {args.workload} exited with "
                         f"code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(args, rounds, setups) -> dict:
    if args.trace:
        # child.py runs the traced pass first in odd rounds and second in even
        # ones; averaging the two orders' medians cancels the warm-up bias
        orders = (rounds[0::2], rounds[1::2])

        def balanced(value):
            return statistics.fmean(statistics.median(value(r) for r in order)
                                    for order in orders)

        metrics = {}
        for name in rounds[0]["layers"]:
            value = balanced(lambda r: r["layers"][name])
            unit = layer_unit(name)
            metrics[name] = {"value": round(value) if unit == "count" else value,
                             "unit": unit}
        overhead = balanced(
            lambda r: 100.0 * (r["traced_wall_s"] / r["wall_s"] - 1.0))
        metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
    else:
        values = {"setup_s": statistics.median(setups),
                  "wall_s": statistics.median(r["wall_s"] for r in rounds),
                  "peak_rss_mb": statistics.median(r["peak_rss_mb"]
                                                   for r in rounds)}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    return {
        "correct": all(r["correct"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "grushin" / "__init__.py").is_file():
        sys.stderr.write(f"no grushin sources under {ROOT / 'src'}\n")
        return 2
    env = dict(os.environ, **{var: str(THREADS) for var in THREAD_VARS})

    start = time.monotonic()
    rounds = [run_round(args, index, env, start + DEADLINE_S)
              for index in range(round_count(args.workload, args.seconds,
                                             args.trace))]
    setups = [r["setup_s"] for r in rounds]
    while not args.trace and len(setups) < SETUP_SAMPLES:
        setups.append(run_round(args, len(setups), env, start + DEADLINE_S,
                                setup_only=True)["setup_s"])

    result = summarize(args, rounds, setups)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    detail = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail.write_text(json.dumps({"threads": THREADS, "result": result,
                                  "setups": setups, "rounds": rounds}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
