"""One benchmark process: set up a workload, then (role `measure`) run it.

    python3 bench/worker.py WORKLOAD SEED ROLE SECONDS TRACE

Prints `ready` once set-up is done (import catkit, build the inputs, warm
up), so the parent can time set-up from process start, then the time of the
calibration loop right after, which scales that set-up time to reference
speed.  Role `setup` stops there; role `measure` runs rounds for SECONDS and
prints one JSON line.  run.py starts it with PYTHONPATH pointing at the
checkout's src/.
"""

from __future__ import annotations

import importlib
import json
import resource
import sys

from harness import CAL_REF_S, OUT, NullTracer, Tracer, calibration_time, measure

SETUP_CAL_UNITS = 15


def main(argv):
    workload, seed, role, seconds, trace = argv
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    tr = Tracer() if trace else NullTracer()
    module = importlib.import_module("wl_" + workload)
    with tr.op("setup"):
        wl = module.setup(seed, tr)
    setup_counts = dict(tr.counts) if trace else {}
    setup_ms = tr.self_ms(0) if trace else {}
    for op in wl.small:  # warm-up: first calls pay lazy imports and caches
        op.run(tr)
    print("ready", flush=True)
    cal = calibration_time(SETUP_CAL_UNITS)
    print("calibration", cal, flush=True)
    if role != "measure":
        return 0
    summary = measure(wl, seconds, tr)
    who = resource.RUSAGE_CHILDREN if getattr(module, "PEAK_OF_CHILDREN", False) else resource.RUSAGE_SELF
    summary["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    if trace:
        summary["setup_ms"] = {k: v * CAL_REF_S / cal for k, v in setup_ms.items()}
        summary["setup_counts"] = setup_counts
        tr.dump(OUT / f"trace-{workload}-seed{seed}.json")
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
