"""One benchmark process: set up a workload, run timed rounds, check them.

Started by run.py, never by hand.  Prints one JSON object as its last line:
the set-up time and the round times, both as measured and corrected to the
reference machine speed (speed.py), peak memory, operation counts and the
check results, plus the per-layer metrics in trace mode.  --spawned is the
time.monotonic() at which run.py started this process, so that set-up
counts from process start.

    python3 bench/worker.py --workload W --seed N --mode setup|work|trace
                            --spawned T --seconds S [--max-rounds R]
                            [--trace-out PATH]
"""

from __future__ import annotations

import time

WORKER_START = time.monotonic(), time.perf_counter()

import argparse
import json
import os
import resource
import statistics
import sys

import speed

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")


def main():
    meter = speed.Speedometer()
    meter.start()
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "work", "trace"), required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--max-rounds", type=int, default=0)
    parser.add_argument("--trace-out", default="")
    args = parser.parse_args()

    import beauville
    if os.path.dirname(os.path.dirname(os.path.abspath(beauville.__file__))) != SRC_DIR:
        raise SystemExit(f"beauville imported from {beauville.__file__}, not from {SRC_DIR}")

    tracer = None
    if args.mode == "trace":
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    import workloads
    workload = workloads.WORKLOADS[args.workload](args.seed)
    if tracer is not None:
        tracer.end_setup()
    setup_end = time.perf_counter()
    spawn_to_start = WORKER_START[0] - args.spawned
    setup_raw = spawn_to_start + setup_end - WORKER_START[1]
    if args.mode == "setup":
        for _ in range(speed.MIN_CHUNKS):
            meter.chunk()
        meter.stop()
        setup = meter.corrected(WORKER_START[1], setup_end, spawn_to_start)
        print(json.dumps({"setup_s": setup, "setup_raw_s": setup_raw}))
        return

    rounds, spans = [], []
    while True:
        start = time.perf_counter()
        rounds.append(workload.run_round())
        spans.append((start, time.perf_counter()))
        if args.max_rounds and len(rounds) >= args.max_rounds:
            break
        # start another round only if it should end within the run length
        if 2 * spans[-1][1] - spans[-1][0] - setup_end > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for _ in range(speed.MIN_CHUNKS):
        meter.chunk()
    meter.stop()
    result = {
        "setup_s": meter.corrected(WORKER_START[1], setup_end, spawn_to_start),
        "setup_raw_s": setup_raw,
        "round_s": [meter.corrected(a, b) for a, b in spans],
        "round_raw_s": [b - a for a, b in spans],
        "chunk_ms_median": 1000 * statistics.median(meter.durations),
    }

    problems = []
    for rnd in rounds:
        problems += workload.check(rnd)
    for p in problems:
        print("check failed:", p, file=sys.stderr)
    result.update({
        "peak_rss_mb": peak_rss_mb,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "correct": not problems,
    })
    if tracer is not None:
        rows = workloads.Catalog.ROWS
        result["per_layer"] = {name: {"value": value, "unit": unit}
                               for name, (value, unit) in tracer.metrics(rows).items()}
        if args.trace_out:
            tracer.write(args.trace_out)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
