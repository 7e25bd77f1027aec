"""Benchmark command: one workload, end-to-end or per-layer metrics.

    python3 bench/run.py --workload catalog|classes|identities|covers
                         --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every measurement runs in a fresh
single-threaded Python process (worker.py) with the checkout's `src/` on
the path.

--trace 0: set-up runs SETUPS times, each in its own process, and the last
of them goes on to repeat whole rounds of the workload until S seconds have
passed (at least one round).  Reports wall_s (median round time), setup_s
(median time from process start to start of work) and peak_rss_mb.  Both
times are corrected to the reference machine speed by speed.py; the
uncorrected times are kept in the per-run results file.

--trace 1: one untraced round, then one round in a process with the
per-layer wrappers of tracing.py installed.  Reports the per-layer metrics
and trace.overhead_pct, the traced round's corrected time against the
untraced one's.

The last line printed is one JSON object with the keys correct, attempted,
failed and metrics.  Per-run results and traces go to bench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RESULTS_DIR = os.path.join(BENCH_DIR, "results")
WORKLOADS = ("catalog", "classes", "identities", "covers")
SETUPS = 3
TIME_LIMIT_S = 170


class WorkerFailed(RuntimeError):
    pass


def run_worker(args, deadline):
    """Start worker.py with args, wait for it, and return its JSON result;
    the worker counts set-up from the moment it was started here."""
    env = dict(os.environ,
               PYTHONPATH=os.path.join(ROOT, "src"),
               PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    start = time.monotonic()
    args = [*args, "--spawned", repr(start)]
    try:
        proc = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "worker.py"), *args],
                              stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
                              timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker {args} ran past the time limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker {args} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def measure(workload, seed, seconds, deadline):
    base = ["--workload", workload, "--seed", str(seed)]
    setup_runs = [run_worker(base + ["--mode", "setup"], deadline) for _ in range(SETUPS - 1)]
    work = run_worker(base + ["--mode", "work", "--seconds", str(seconds)], deadline)
    setup_runs.append(work)
    setups = [r["setup_s"] for r in setup_runs]
    metrics = {
        "wall_s": {"value": statistics.median(work["round_s"]), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": work["peak_rss_mb"], "unit": "MB"},
    }
    detail = {"rounds_s": work["round_s"], "setups_s": setups,
              "rounds_raw_s": work["round_raw_s"],
              "setups_raw_s": [r["setup_raw_s"] for r in setup_runs],
              "chunk_ms_median": work["chunk_ms_median"]}
    return work, metrics, detail


def measure_traced(workload, seed, deadline, trace_path):
    base = ["--workload", workload, "--seed", str(seed), "--max-rounds", "1"]
    plain = run_worker(base + ["--mode", "work"], deadline)
    traced = run_worker(base + ["--mode", "trace", "--trace-out", trace_path], deadline)
    metrics = dict(traced["per_layer"])
    overhead = (traced["round_s"][0] / plain["round_s"][0] - 1) * 100
    metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
    combined = {
        "correct": plain["correct"] and traced["correct"],
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
    }
    detail = {"untraced_round_s": plain["round_s"][0], "traced_round_s": traced["round_s"][0],
              "untraced_round_raw_s": plain["round_raw_s"][0],
              "traced_round_raw_s": traced["round_raw_s"][0]}
    return combined, metrics, detail


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S
    os.makedirs(RESULTS_DIR, exist_ok=True)
    stem = os.path.join(RESULTS_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    try:
        if args.trace:
            work, metrics, detail = measure_traced(args.workload, args.seed, deadline,
                                                   stem + ".spans.json")
        else:
            work, metrics, detail = measure(args.workload, args.seed, args.seconds, deadline)
    except WorkerFailed as exc:
        print(exc, file=sys.stderr)
        return 1
    line = {"correct": work["correct"], "attempted": work["attempted"],
            "failed": work["failed"], "metrics": metrics}
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(dict(line, detail=detail), fh, indent=1)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
