#!/usr/bin/env python3
"""catkit benchmark: run one workload (or all four) and print its metrics.

    python3 bench/run.py --workload surfaces --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1

Run from anywhere; catkit is imported from the src/ directory next to this
one, with numpy held to one BLAS thread.  Each workload runs in fresh worker
processes, one at a time: SETUP_SAMPLES of them time set-up from process
start to the first timed operation (setup_s is their median) and the last
one also measures.  Times are reported at reference speed (harness.py).
The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; with --trace 1 the metrics are the
per-layer figures of BENCHMARK.json instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from harness import CAL_REF_S, OUT

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("surfaces", "equality", "circuits", "cli")
SETUP_SAMPLES = 5


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def start_worker(workload, seed, role, seconds, trace):
    """Start a worker; return its set-up time at reference speed and its process."""
    cmd = [sys.executable, str(BENCH / "worker.py"), workload, str(seed), role,
           str(seconds), str(int(trace))]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=worker_env(), cwd=ROOT)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    cal = proc.stdout.readline().split()
    if line.strip() != "ready" or len(cal) != 2 or cal[0] != "calibration":
        proc.stdout.read()
        proc.wait()
        raise RuntimeError(f"{workload} worker failed during set-up (exit {proc.returncode})")
    return ready * CAL_REF_S / float(cal[1]), proc


def run_workload(workload, seed, seconds, trace, spec):
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            ready, proc = start_worker(workload, seed, "setup", seconds, trace)
            proc.stdout.read()
            if proc.wait() != 0:
                raise RuntimeError(f"{workload} set-up worker exited {proc.returncode}")
            setups.append(ready)
    ready, proc = start_worker(workload, seed, "measure", seconds, trace)
    setups.append(ready)
    lines = proc.stdout.read().splitlines()
    if proc.wait() != 0 or not lines:
        raise RuntimeError(f"{workload} worker exited {proc.returncode}")
    summary = json.loads(lines[-1])

    if trace:
        # The traced batch time, beside the untraced batch_s, gives the tracing overhead.
        print(f"{workload}: traced batch_s {summary['batch_s']:.4f}", file=sys.stderr)
        wanted = spec["per_layer"]
        values = {}
        for m in wanted:
            name = m["name"]
            if m["unit"] == "ms":
                rounds = [r.get(name, 0.0) for r in summary["layer_rounds"]]
                values[name] = statistics.median(rounds) + summary["setup_ms"].get(name, 0.0)
            else:
                rounds = [r.get(name, 0) for r in summary["count_rounds"]]
                values[name] = statistics.median(rounds) + summary["setup_counts"].get(name, 0)
    else:
        wanted = spec["end_to_end"]
        values = dict(summary)
        values["setup_s"] = statistics.median(setups)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    return {
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = ROOT / "src" / "catkit" / "__init__.py"
    spec_path = ROOT / "BENCHMARK.json"
    if not src.is_file() or not spec_path.is_file():
        print(f"error: needs {src} and {spec_path} (run from a catkit checkout)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    OUT.mkdir(exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, seconds, args.trace, spec)
            if len(names) > 1:
                print(name, json.dumps(results[name]), flush=True)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
