"""End-to-end benchmark of the BoLT reproduction, one workload per run.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload ycsb-a-zipf --seed 1 --seconds 30 --trace 0

A run builds the workload's inputs from ``--seed``, then repeats *reps*
(set up from nothing, measure) until ``--seconds`` of wall time are
used, with at least two; the first also checks every result.  Every
rep of a seed must produce the same virtual-clock outputs, byte for
byte; wall-clock metrics are medians over the reps.  ``--trace 1`` runs
one rep untraced, then one with every layer's functions wrapped (see
``layers.py``), and reports per-layer wall time and counters instead of
the end-to-end metrics.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The run exits 1 when
any result is wrong or any check fails, 2 when it cannot run at all.
See ``README.md`` for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: End-to-end metrics, in print order, with their units.  A workload
#: prints those it defines (README.md says which).
END_TO_END = (
    ("wall_ops_per_s", "ops/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("v_ops_per_s", "ops/s"),
    ("v_max_rate", "req/s"),
    ("v_read_p50_us", "us"),
    ("v_read_tail_us", "us"),
    ("v_write_p50_us", "us"),
    ("v_write_tail_us", "us"),
    ("write_amp", "ratio"),
    ("space_amp", "ratio"),
    ("barriers_per_kop", "count"),
)

#: The end-to-end metrics in the result line (and in BENCHMARK.json):
#: those every workload defines that are never 0 and, across seeds, do
#: not stay constant or swing past their bound.  See README.md.
GATED = ("wall_ops_per_s", "setup_s", "peak_rss_mb", "v_ops_per_s",
         "write_amp", "space_amp")

#: Program counters reported by the traced run, with their units.
LAYER_COUNTERS = (
    ("sim.events", "count"),
    ("device.reads", "count"),
    ("device.bytes_read", "B"),
    ("device.writes", "count"),
    ("device.bytes_written", "B"),
    ("device.barriers", "count"),
    ("device.busy_vs", "s"),
    ("device.barrier_vs", "s"),
    ("fs.fsyncs", "count"),
    ("fs.fdatasyncs", "count"),
    ("fs.hole_punches", "count"),
    ("fs.bytes_punched", "B"),
    ("fs.allocated_bytes", "B"),
    ("page_cache.hit_ratio", "ratio"),
    ("engine.stall_vs", "s"),
    ("engine.slowdown_vs", "s"),
    ("engine.write_wait_vs", "s"),
    ("engine.group_size_mean", "count"),
    ("engine.memtable_flushes", "count"),
    ("engine.compactions", "count"),
    ("engine.compaction_bytes_written", "B"),
    ("engine.compaction_vs", "s"),
    ("engine.tables_probed_per_get", "count"),
    ("sstable.blocks_read_per_get", "count"),
    ("table_cache.hit_ratio", "ratio"),
    ("block_cache.hit_ratio", "ratio"),
    ("manifest.edits", "count"),
    ("core.settled_promotions", "count"),
    ("core.group_victims", "count"),
    ("fd_cache.hit_ratio", "ratio"),
    ("svc.queue_delay_p99_vus", "us"),
    ("svc.peak_queue_depth", "count"),
    ("svc.rejected", "count"),
    ("svc.shed_writes", "count"),
    ("svc.gen_lag_max_vus", "us"),
    ("cluster.records_applied", "count"),
    ("cluster.max_lag_vs", "s"),
    ("cluster.backlog_end", "count"),
)

#: Counters the traced run takes at a wrapped boundary (no program
#: counter exists for them), with their units.
BOUNDARY_COUNTERS = (
    ("bloom.negative_ratio", "ratio"),
    ("core.barriers_per_compaction", "count"),
    ("wall.sim.us_per_event", "us"),
    ("trace_overhead", "ratio"),
)

#: Reps per untraced run when the time budget allows fewer: two keep a
#: run near 30 s, so dozens of runs of every workload fit in an hour.
MIN_REPS = 2
#: Largest share of the traced wall time the per-layer self times may
#: miss (timer reads outside the wrapped spans).
SUM_TOLERANCE = 0.01

_BLOOM = "repro.lsm.bloom:BloomFilter.may_contain"
_COMPACTION = "repro.lsm.engine:LSMEngine._run_compaction"
_BARRIERS = ("repro.storage.filesystem:SimFS.fsync",
             "repro.storage.filesystem:SimFS.fdatasync")


def per_layer_metrics() -> List[Tuple[str, str]]:
    """Every per-layer metric name with its unit, in print order."""
    from layers import LAYER_NAMES
    wall = []
    for layer in LAYER_NAMES:
        wall.append((f"wall.{layer}.calls", "count"))
        wall.append((f"wall.{layer}.self_s", "s"))
    return wall + list(LAYER_COUNTERS) + list(BOUNDARY_COUNTERS)


class _Window:
    """Per-layer totals summed over the measured stretches of one rep."""

    def __init__(self, tracer: Any, boundary: Dict[str, int]):
        self.tracer = tracer
        self.boundary = boundary
        self.layers: Dict[str, List[float]] = {}
        self.counts: Dict[str, int] = {}
        self._mark: Optional[Tuple[Dict, Dict]] = None

    def __call__(self, event: str) -> None:
        if event == "resume":
            self._mark = (self.tracer.totals(), dict(self.boundary))
            return
        layers, counts = self._mark
        for name, (calls, self_s) in self.tracer.totals().items():
            total = self.layers.setdefault(name, [0, 0.0])
            total[0] += calls - layers[name][0]
            total[1] += self_s - layers[name][1]
        for name, value in self.boundary.items():
            self.counts[name] = self.counts.get(name, 0) + value - counts[name]


def _untraced(event: str) -> None:
    del event


def _run_traced(workload: str, inputs: Any, rep: Any) -> Tuple[Any, List[str]]:
    """One rep with the layer wrappers installed; returns (window, leftovers)."""
    from layers import LayerTracer
    from workloads import run_rep

    boundary = {"bloom.checks": 0, "bloom.negatives": 0,
                "compaction.barriers": 0}

    def on_bloom(result: bool) -> None:
        boundary["bloom.checks"] += 1
        if not result:
            boundary["bloom.negatives"] += 1

    def on_barrier(_result: Any) -> None:
        if tracer.active[_COMPACTION]:
            boundary["compaction.barriers"] += 1

    tracer = LayerTracer(
        observers={_BLOOM: on_bloom, _BARRIERS[0]: on_barrier,
                   _BARRIERS[1]: on_barrier},
        contexts=(_COMPACTION,))
    window = _Window(tracer, boundary)
    tracer.install()
    try:
        run_rep(workload, inputs, rep, window, check=False)
    finally:
        leftovers = tracer.remove()
    return window, leftovers


def _traced_metrics(window: _Window, traced: Any, untraced_wall: float
                    ) -> Dict[str, float]:
    from layers import LAYER_NAMES
    out: Dict[str, float] = {}
    for layer in LAYER_NAMES:
        calls, self_s = window.layers.get(layer, (0, 0.0))
        out[f"wall.{layer}.calls"] = calls
        out[f"wall.{layer}.self_s"] = self_s
    for name, _unit in LAYER_COUNTERS:
        out[name] = traced.virtual.get(f"layer.{name}", 0)
    counts = window.counts
    out["bloom.negative_ratio"] = (counts["bloom.negatives"]
                                   / counts["bloom.checks"]
                                   if counts["bloom.checks"] else 0.0)
    compactions = out["engine.compactions"]
    out["core.barriers_per_compaction"] = (
        counts["compaction.barriers"] / compactions if compactions else 0.0)
    events = out["sim.events"]
    out["wall.sim.us_per_event"] = (out["wall.sim.self_s"] / events * 1e6
                                    if events else 0.0)
    out["trace_overhead"] = traced.measured_s / untraced_wall
    return out


def _differences(a: Dict[str, float], b: Dict[str, float]) -> List[str]:
    return [f"{k}: {a.get(k)!r} != {b.get(k)!r}"
            for k in sorted(set(a) | set(b)) if a.get(k) != b.get(k)]


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one workload; print the metrics and the JSON result line."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="wall-time budget for the reps of this run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"e2ebench: {SRC}/repro not found; run from the root of a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOAD_NAMES, Rep, make_inputs, run_rep

    if args.workload not in WORKLOAD_NAMES:
        print(f"e2ebench: unknown workload {args.workload!r} "
              f"(choose from {', '.join(WORKLOAD_NAMES)})", file=sys.stderr)
        return 2

    started = time.perf_counter()
    inputs = make_inputs(args.workload, args.seed)
    inputs_s = time.perf_counter() - started

    budget_start = time.perf_counter()
    reps: List[Rep] = []
    traced: Optional[Rep] = None
    window = None
    problems: List[str] = []
    estimate = 0.0
    while True:
        if args.trace:
            # One untraced rep, then one traced.
            if reps:
                traced = Rep()
                window, leftovers = _run_traced(args.workload, inputs, traced)
                problems += [f"wrapper not removed: {name}"
                             for name in leftovers]
                break
        elif (len(reps) >= MIN_REPS and time.perf_counter() - budget_start
              + estimate > args.seconds):
            break
        rep = Rep()
        rep_started = time.perf_counter()
        run_rep(args.workload, inputs, rep, _untraced, check=not reps)
        reps.append(rep)
        estimate = time.perf_counter() - rep_started

    first = reps[0]
    problems += first.violations
    for rep in reps[1:] + ([traced] if traced else []):
        label = "traced rep" if rep is traced else "rep"
        if rep.history_digest != first.history_digest:
            problems.append(f"{label} history differs from the first rep's")
        problems += [f"{label} differs: {d}"
                     for d in _differences(first.virtual, rep.virtual)]

    for note in first.notes:
        print(f"note: {note}")
    print(f"inputs_s: {inputs_s:.4f} s (outside every metric)")
    print(f"reps: {len(reps)} untraced" + (", 1 traced" if traced else ""))
    for rep in reps + ([traced] if traced else []):
        print(f"rep wall: set-up {rep.setup_raw_s:.3f} s raw, "
              f"{rep.setup_s:.3f} s scaled; measured {rep.measured_raw_s:.3f} s"
              f" raw, {rep.measured_s:.3f} s scaled"
              + (" (traced)" if rep is traced else ""))
    errors = sum(rep.errors for rep in reps)
    error_ratio = ((first.errors + first.refused + len(first.violations))
                   / first.attempted)
    print(f"error_ratio: {error_ratio:.6f} ratio ({first.errors} failed, "
          f"{first.refused} refused, {len(first.violations)} wrong of "
          f"{first.attempted} attempted)")

    if args.trace:
        metrics = _traced_metrics(
            window, traced,
            statistics.median(rep.measured_s for rep in reps))
        self_total = sum(v for k, v in metrics.items()
                         if k.startswith("wall.") and k.endswith(".self_s"))
        # The layer totals count the simulation itself; the raw stretch
        # times add only the timer reads around it.
        wall = traced.measured_raw_s
        gap = abs(self_total - wall) / wall
        print(f"layer self times sum to {self_total:.4f} s of {wall:.4f} s "
              f"traced wall ({gap:.2%} apart)")
        if gap > SUM_TOLERANCE:
            problems.append(f"layer self times miss {gap:.2%} of the traced "
                            f"wall time")
        units = dict(per_layer_metrics())
        reported = metrics
    else:
        metrics = {
            "wall_ops_per_s": statistics.median(
                rep.completed / rep.measured_s for rep in reps),
            "setup_s": statistics.median(rep.setup_s for rep in reps),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics.update({name: first.virtual[name]
                        for name, _unit in END_TO_END
                        if name in first.virtual})
        units = dict(END_TO_END)
        reported = {name: metrics[name] for name in GATED}
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")
    for problem in problems:
        print(f"FAIL: {problem}")

    correct = not problems and errors == 0
    print(json.dumps({
        "correct": correct,
        "attempted": sum(rep.attempted for rep in reps)
        + (traced.attempted if traced else 0),
        "failed": errors + len(first.violations),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in reported.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
