"""Operations, rounds, host-speed calibration, spans and the metric summary.

A workload is a fixed batch of operations.  One round runs the whole batch
once, with the smallest case interleaved between the other operations, so a
slow spell of the machine hits every case.  A run repeats whole rounds until
its time is up, so every run attempts the same operations in the same
proportions and the share of failed operations never depends on run length.

The shared host this benchmark was built on runs the same code up to 2x
slower for stretches of seconds to a minute.  So a fixed calibration unit
that runs no catkit code (a pure-Python loop; for the CLI workload, a bare
interpreter start) runs between operations, and every time is reported at
reference speed: measured time x (the unit's reference time) / (the unit's
median time in the same round).  See README.md, "Noise controls".
"""

from __future__ import annotations

import gc
import json
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"  # git-ignored output directory
MIN_ROUNDS = 3
CAL_REF_S = 0.0004  # calibration loop time that defines reference speed
CAL_UNITS = 2  # calibration loops before each batch operation


def calibrate():
    """One calibration loop: list, integer, tuple and string work, no catkit.

    Never change it: it defines the unit every time is reported in.
    """
    state = 5
    parent = list(range(200))
    for _ in range(400):
        state = (state * 1103515245 + 12345) % 2147483648
        a, b = state % 200, (state >> 8) % 200
        while parent[a] != a:
            a = parent[a]
        while parent[b] != b:
            b = parent[b]
        if a != b:
            parent[a] = b
    return sorted((repr(k), v) for k, v in enumerate(parent))


def calibration_time(units):
    """Median time of `units` calibration loops."""
    times = []
    for _ in range(units):
        t0 = time.perf_counter()
        calibrate()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Op:
    """One timed call into catkit plus the independent check of its result.

    run(tr) performs the call (through the tracer, so a traced run can split
    it into stages); check(result) returns True when the result is right.
    fault names a known fault of catkit that makes this operation fail on
    every run; any other failing operation makes the run incorrect.
    """

    __slots__ = ("name", "run", "check", "fault")

    def __init__(self, name, run, check, fault=None):
        self.name = name
        self.run = run
        self.check = check
        self.fault = fault


class Workload:
    """The batch of one round: `ops` (which include the `large` ones), with
    the `small` ops run `small_reps` times before each of them.  small_ms is
    the median of the small list's time (the mean over those repeats),
    large_ms the sum of the large ops' median times.

    `calibrate()` times one calibration unit, `cal_units` of which run before
    each batch operation; `cal_ref` is that unit's time at reference speed.
    Traced layer times named in `unscaled` are reported as measured.
    """

    def __init__(self, ops, small, large, small_reps=1, calibrate=lambda: calibration_time(1),
                 cal_units=CAL_UNITS, cal_ref=CAL_REF_S, unscaled=()):
        assert all(op in ops for op in large) and not any(op in ops for op in small)
        self.ops = ops
        self.small = small
        self.large = large
        self.small_reps = small_reps
        self.calibrate = calibrate
        self.cal_units = cal_units
        self.cal_ref = cal_ref
        self.unscaled = unscaled


class NullTracer:
    """Tracing off: every stage call goes straight to catkit."""

    on = False
    last = None

    def call(self, layer, fn, *args, inner=(), **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, n):
        pass

    @contextmanager
    def op(self, name):
        yield


class Tracer:
    """Spans around each call the benchmark makes into a catkit layer.

    A span is (layer, start, end, op span, inner spans).  Where a public
    function calls another one internally, the traced operation first calls
    the inner stage on the same input and passes its span as `inner`; the
    outer span's self time is its duration minus the inner durations.
    """

    on = True

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.last = None
        self._op = None

    def call(self, layer, fn, *args, inner=(), **kwargs):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        t1 = time.perf_counter()
        self.spans.append((layer, t0, t1, self._op, tuple(inner)))
        self.last = len(self.spans) - 1
        return result

    def count(self, name, n):
        self.counts[name] += n

    @contextmanager
    def op(self, name):
        self.spans.append((name, time.perf_counter(), None, None, ()))
        self._op = len(self.spans) - 1
        try:
            yield
        finally:
            layer, t0, _, parent, inner = self.spans[self._op]
            self.spans[self._op] = (layer, t0, time.perf_counter(), parent, inner)
            self._op = None

    def self_ms(self, first):
        """Per-layer self time in ms of the stage spans from index `first`."""
        out = Counter()
        for layer, t0, t1, parent, inner in self.spans[first:]:
            if parent is None:
                continue
            dur = t1 - t0 - sum(self.spans[i][2] - self.spans[i][1] for i in inner)
            out[layer] += max(dur, 0.0) * 1e3
        return out

    def dump(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [
            [index[layer], round(t0, 7), round(t1, 7), parent, list(inner)]
            for layer, t0, t1, parent, inner in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names, "fields": ["name", "start", "end", "op", "inner"],
                       "spans": rows}, fh, separators=(",", ":"))


def measure(workload, seconds, tr):
    """Run whole rounds for `seconds`; return counts, the end-to-end times
    and, when tracing, each round's layer figures."""
    state = {"attempted": 0, "failed": 0, "unexpected": 0}
    seen = set()

    def run(op):
        with tr.op(op.name):
            t0 = time.perf_counter()
            try:
                result, error = op.run(tr), None
            except Exception as exc:  # a raising operation is a failed one
                result, error = None, exc
            dt = time.perf_counter() - t0
        state["attempted"] += 1
        if error is None and _checked(op, result):
            return dt
        state["failed"] += 1
        state["unexpected"] += op.fault is None
        if op.name not in seen:
            seen.add(op.name)
            why = f"raised {error!r}" if error is not None else "wrong result"
            tag = f"known fault {op.fault}" if op.fault else "UNEXPECTED"
            print(f"failed op {op.name}: {why} ({tag})", file=sys.stderr)
        return dt

    # rounds[r][i]: (small ops before batch op i, batch op i), scaled, in round r
    rounds, small = [], []
    layer_rounds, count_rounds = [], []
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        gc.collect()
        first_span = len(tr.spans) if tr.on else 0
        if tr.on:
            tr.counts = Counter()
        times, cal = [], []
        for op in workload.ops:
            dt = sum(run(s) for _ in range(workload.small_reps) for s in workload.small)
            for _ in range(workload.cal_units):
                cal.append(workload.calibrate())
            times.append((dt, run(op)))
        scale = workload.cal_ref / statistics.median(cal)
        rounds.append([(s * scale, t * scale) for s, t in times])
        small += [s * scale / workload.small_reps for s, _ in times]
        if tr.on:
            layer_rounds.append({k: v if k in workload.unscaled else v * scale
                                 for k, v in tr.self_ms(first_span).items()})
            count_rounds.append(dict(tr.counts))
    return {
        "attempted": state["attempted"],
        "failed": state["failed"],
        "correct": state["unexpected"] == 0,
        # Sums of per-operation medians, so a slow spell that hits one
        # operation in one round is left out rather than added in.
        "batch_s": sum(statistics.median(sum(r[i]) for r in rounds) for i in range(len(workload.ops))),
        "small_ms": statistics.median(small) * 1e3,
        "large_ms": sum(statistics.median(r[i][1] for r in rounds)
                        for i, op in enumerate(workload.ops) if op in workload.large) * 1e3,
        "layer_rounds": layer_rounds,
        "count_rounds": count_rounds,
    }


def _checked(op, result):
    try:
        return bool(op.check(result))
    except Exception as exc:  # a check that cannot read the result rejects it
        print(f"check of {op.name} raised {exc!r}", file=sys.stderr)
        return False
