"""One round of one workload, in a fresh process; prints one JSON line.

Started by run.py, which passes `--t0`, its monotonic clock just before the
process was spawned: set-up time runs from there to the first timed
operation, so it covers interpreter start, imports and input building.
Every round pays the first-call warm-up that a CLI run pays.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]


def run_ops(ops):
    """Run every op; return (summarized outputs, errors, seconds per op)."""
    outputs, errors, seconds = {}, {}, {}
    for op in ops:
        start = time.perf_counter()
        try:
            raw = op.run()
        except Exception as exc:  # an op that raises counts as failed
            seconds[op.name] = time.perf_counter() - start
            errors[op.name] = f"{type(exc).__name__}: {exc}"
            continue
        seconds[op.name] = time.perf_counter() - start
        outputs[op.name] = op.summarize(raw)
        del raw
    return outputs, errors, seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up and report its time only")
    args = parser.parse_args(argv)

    import workloads
    from tracer import Tracer

    workload = workloads.build(args.workload, args.seed)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = Tracer() if args.trace else None
    passes = ["plain"]
    if tracer is not None:
        # alternate which pass runs first, so warm-up falls on both sides
        passes = ["plain", "traced"] if args.round % 2 == 0 else ["traced", "plain"]
    results = {}
    for which in passes:
        with tracer.installed() if which == "traced" else contextlib.nullcontext():
            results[which] = run_ops(workload.ops)

    outputs, errors, seconds = results["plain"]
    failed, problems = set(errors), []
    if errors:
        problems.append(f"checks skipped: ops raised {errors}")
    else:
        failed, problems = workload.check(outputs)
    known = {op.name for op in workload.ops if op.known_fault}
    unexpected = sorted(set(failed) - known)
    if unexpected:
        problems.append(f"unexpected failures: {unexpected}")

    report = {
        "setup_s": setup_s,
        "wall_s": sum(seconds.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(workload.ops),
        "failed": len(failed),
        "failed_ops": sorted(failed),
        "problems": problems,
        "op_seconds": seconds,
        "meta": workload.meta,
    }
    if tracer is not None:
        t_out, t_err, t_seconds = results["traced"]
        same = (t_err == errors and t_out.keys() == outputs.keys()
                and all(workloads.fingerprint(t_out[k])
                        == workloads.fingerprint(outputs[k]) for k in outputs))
        if not same:
            problems.append("traced outputs differ from untraced outputs")
        report["traced_wall_s"] = sum(t_seconds.values())
        report["layers"] = tracer.metrics()
    report["correct"] = not problems
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
