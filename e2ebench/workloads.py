"""The benchmark's three workloads: inputs, set-up, measured phase, checks.

Every workload runs BoLT (``SYSTEMS["bolt"]``).  A *rep* of a workload
builds its machine(s) from nothing, preloads and quiesces (set-up), then
runs the measured phase; the first rep of a run also checks every
result.  Inputs — operation
lists, values and arrival schedules — are a pure function of the seed
and are built once, before any clock starts, so every rep of one seed
simulates exactly the same thing.

Sizes, flush policies and the reason each workload exists are in
``README.md`` beside this file.
"""

from __future__ import annotations

import bisect
import hashlib
import math
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.bench import BenchConfig, SYSTEMS
from repro.bench.harness import new_stack
from repro.cluster import ClusterConfig, ClusterStore
from repro.faults.history import HistoryOp, HistoryRecorder, check_history
# S1 alone: check_history runs it only together with the cubic R1/R2 pass.
from repro.faults.history import _check_sessions
from repro.sim import Environment
from repro.svc import POLICY_REJECT, Server
from repro.svc.loadgen import OpenLoopClient
from repro.svc.server import STATUS_ERROR, STATUS_OK
from repro.ycsb import WORKLOADS
from repro.ycsb.distributions import InsertCounter
from repro.ycsb.workload import Operation, WorkloadRunner

KEY_BYTES = 23            # len(build_key(n)): b"user" + 19 digits
VALUE_BYTES = 256
RECORD_BYTES = KEY_BYTES + VALUE_BYTES

# ycsb-a-zipf / ycsb-c-uniform: 20k records (5.6 MB of user data) on the
# default page cache of BenchConfig (1 MB), i.e. larger than cache.
YCSB_RECORDS = 20_000
YCSB_CLIENTS = 4
YCSB_SCALE = 256
#: Measured ops.  ycsb-a-zipf runs longer so write amplification gets
#: closer to level: by half of its measured phase it reads 2.6 then 4.4
#: at 40k ops, 3.3 then 4.0 at 60k, 3.5 then 4.0 at 80k (seed 1).
YCSB_A_OPS = 60_000
YCSB_C_OPS = 40_000

# cluster-serve: 10k records over 2 shards is ~1.4 MB per node against
# a 4 MB page cache per node, i.e. the data fits.
CLUSTER_RECORDS = 10_000
CLUSTER_LOADERS = 8
CLUSTER_CLIENTS = 2
#: Offered request rates (req/s, virtual, all clients together), run
#: back to back, each for RUNG_SECONDS of virtual arrivals.
LADDER = (50_000, 60_000, 70_000, 80_000)
RUNG_SECONDS = 0.04
#: Read/write latencies of cluster-serve are taken at this rung.
MIDDLE_RUNG = 1
#: v_max_rate: the highest rung with no refusal and merged p99 at most
#: this (virtual seconds).
P99_LIMIT_S = 1e-3

#: History client id of the post-run read-back.
READBACK_CLIENT = 1_000_000


# -- inputs -----------------------------------------------------------------


class _Values:
    """Unique write payloads: the history checker maps values to writes."""

    def __init__(self) -> None:
        self._next = 0

    def make(self) -> bytes:
        """The next payload: a 16-digit serial number, padded."""
        self._next += 1
        tag = b"%016d" % self._next
        return tag + b"v" * (VALUE_BYTES - len(tag))


def _ops(spec_name: str, count: int, records: int, seed: int,
         values: _Values, counter: InsertCounter,
         distribution: Optional[str] = None) -> List[Operation]:
    spec = WORKLOADS[spec_name]
    if distribution is not None:
        spec = spec.with_distribution(distribution)
    runner = WorkloadRunner(spec, records, value_size=VALUE_BYTES, seed=seed,
                            insert_counter=counter)
    return [(kind, key, values.make() if kind != "read" else None)
            for kind, key, _payload in runner.operations(count)]


def _deal(ops: List[Operation], clients: int) -> List[List[Operation]]:
    """Round-robin split, as repro.ycsb.client.run_operations deals."""
    return [ops[i::clients] for i in range(clients)]


@dataclass
class Rung:
    """Inputs of one offered rate of the cluster-serve ladder."""

    rate: float
    #: Per client: operation list and inter-arrival gaps (seconds).
    ops: List[List[Operation]]
    gaps: List[List[float]]


@dataclass
class Inputs:
    """Everything a workload run consumes, built from the seed alone."""

    load: List[List[Operation]]
    measured: List[List[Operation]] = field(default_factory=list)
    ladder: List[Rung] = field(default_factory=list)


def make_inputs(workload: str, seed: int) -> Inputs:
    """Build the operation lists and arrival schedules for ``seed``."""
    values = _Values()
    if workload in ("ycsb-a-zipf", "ycsb-c-uniform"):
        counter = InsertCounter(0)
        load = _ops("load_a", YCSB_RECORDS, YCSB_RECORDS, seed, values,
                    counter)
        if workload == "ycsb-a-zipf":
            measured = _ops("a", YCSB_A_OPS, YCSB_RECORDS, seed + 1,
                            values, counter)
        else:
            measured = _ops("c", YCSB_C_OPS, YCSB_RECORDS, seed + 1,
                            values, counter, distribution="uniform")
        return Inputs(load=_deal(load, YCSB_CLIENTS),
                      measured=_deal(measured, YCSB_CLIENTS))
    if workload == "cluster-serve":
        load = _ops("load_a", CLUSTER_RECORDS, CLUSTER_RECORDS, seed, values,
                    InsertCounter(0))
        ladder = []
        for rung, rate in enumerate(LADDER):
            per_client = int(rate * RUNG_SECONDS / CLUSTER_CLIENTS)
            ops, gaps = [], []
            for client in range(CLUSTER_CLIENTS):
                stream = seed * 7919 + rung * 101 + client
                ops.append(_ops("a", per_client, CLUSTER_RECORDS, stream,
                                values, InsertCounter(CLUSTER_RECORDS)))
                rng = random.Random(stream)
                gaps.append([rng.expovariate(rate / CLUSTER_CLIENTS)
                             for _ in range(per_client)])
            ladder.append(Rung(rate, ops, gaps))
        return Inputs(load=_deal(load, CLUSTER_LOADERS), ladder=ladder)
    raise ValueError(f"unknown workload {workload!r}")


# -- shared machinery -----------------------------------------------------------


@dataclass
class Rep:
    """One rep's measurements (wall) and outputs (virtual)."""

    #: Wall seconds of set-up and of the measured phase: raw, and
    #: scaled to the reference host speed (see Stopwatch).
    setup_s: float = 0.0
    setup_raw_s: float = 0.0
    measured_s: float = 0.0
    measured_raw_s: float = 0.0
    #: Ops (ycsb) or requests (cluster) attempted / completed ok in the
    #: measured phase.
    attempted: int = 0
    completed: int = 0
    errors: int = 0
    refused: int = 0
    violations: List[str] = field(default_factory=list)
    #: Virtual-clock metrics and counters; equal across reps of a seed.
    virtual: Dict[str, float] = field(default_factory=dict)
    #: Human-readable lines (steady-state evidence, tail percentiles).
    notes: List[str] = field(default_factory=list)
    history_digest: str = ""


@dataclass
class _Machine:
    device: Any
    fs: Any
    db: Any


def _closed_client(env: Environment, db: Any, ops: List[Operation],
                   client: int, hist: HistoryRecorder,
                   progress: Optional[Callable[[], None]] = None
                   ) -> Generator[Any, Any, None]:
    """Issue ``ops`` back to back, logging each interval in ``hist``."""
    for kind, key, payload in ops:
        if kind == "read":
            op = hist.invoke(client, "r", key)
            value = yield from db.get(key)
            hist.ok(op, value)
        else:
            op = hist.invoke(client, "w", key, payload)
            yield from db.put(key, payload)
            hist.ok(op)
        if progress is not None:
            progress()


def _readback(env: Environment, db: Any, keys: List[bytes],
              hist: HistoryRecorder) -> Generator[Any, Any, None]:
    yield from _closed_client(env, db, [("read", key, None) for key in keys],
                              READBACK_CLIENT, hist)


def _verify(env: Environment, store: Any, hist: HistoryRecorder,
            load_end: int, rep: Rep, check: bool) -> None:
    """Digest the history; with ``check``, read every key back and check.

    Reps of one seed that digest alike ran the same history, so only
    one rep per run needs the read-back and the checker.
    """
    rep.history_digest = _digest(hist.ops)
    if check:
        keys = sorted({op.key for op in hist.ops[:load_end]})
        env.run_until(env.process(_readback(env, store, keys, hist)))
        rep.violations = _check(hist.ops)


def _check(ops: List[HistoryOp]) -> List[str]:
    """R1/R2/S1 over the whole history, then the read-back explicitly.

    ``check_history`` weighs each read against every pair of writes of
    its key, which is cubic in the writes of a key: the hottest zipfian
    key of ycsb-a-zipf alone would take ~7e9 steps.  So each read is
    checked by ``check_history`` on the sub-history that decides it —
    the read, the latest-invoked write acked before it began (the one
    that supersedes most), every write that one does not supersede, and
    the write of the value the read returned.  R1/R2 give the same
    verdict there as on the whole history, because a write outside the
    sub-history is superseded in both.  S1 needs whole sessions and is
    linear, so it runs on the whole history.

    Each read-back read must then return the last acknowledged write of
    its key: the acked write that completed last, or one that
    overlapped it.
    """
    problems = list(_check_sessions(ops))
    by_key: Dict[bytes, Tuple[List[HistoryOp], List[HistoryOp]]] = {}
    for op in ops:
        writes, reads = by_key.setdefault(op.key, ([], []))
        (writes if op.kind == "w" else reads).append(op)
    for writes, reads in by_key.values():
        acked = sorted((w for w in writes if w.ok), key=lambda w: w.completed)
        acked_ends = [w.completed for w in acked]
        # latest[i]: the latest-invoked write among acked[:i + 1].
        latest: List[HistoryOp] = []
        for w in acked:
            latest.append(w if not latest or w.invoked > latest[-1].invoked
                          else latest[-1])
        by_start = sorted(writes, key=lambda w: w.invoked)
        starts = [w.invoked for w in by_start]
        longest = max((w.completed - w.invoked for w in writes
                       if w.completed != math.inf), default=0.0)
        unfinished = [w for w in writes if w.completed == math.inf]
        writer_of = {w.value: w for w in writes}
        for read in reads:
            if not read.ok:
                continue
            keep: Dict[int, HistoryOp] = {read.op_id: read}
            before = bisect.bisect_left(acked_ends, read.invoked)
            floor = -math.inf
            if before:
                floor = latest[before - 1].invoked
                keep[latest[before - 1].op_id] = latest[before - 1]
            index = bisect.bisect_left(starts, read.completed) - 1
            while index >= 0 and starts[index] + longest >= floor:
                w = by_start[index]
                if w.completed >= floor:
                    keep[w.op_id] = w
                index -= 1
            for w in unfinished:
                if w.invoked < read.completed:
                    keep[w.op_id] = w
            if read.value in writer_of:
                keep[writer_of[read.value].op_id] = writer_of[read.value]
            sub = [keep[op_id] for op_id in sorted(keep)]
            problems += [p for p in check_history(sub)
                         if not p.startswith("S1")]

    acked_by_key: Dict[bytes, List[HistoryOp]] = {}
    for op in ops:
        if op.kind == "w" and op.ok:
            acked_by_key.setdefault(op.key, []).append(op)
    for op in ops:
        if op.client != READBACK_CLIENT:
            continue
        acked = acked_by_key.get(op.key, [])
        if not acked:
            problems.append(f"read-back of never-written key {op.key!r}")
            continue
        last = max(acked, key=lambda w: w.completed)
        allowed = {w.value for w in acked if w.completed >= last.invoked}
        if op.value not in allowed:
            problems.append(f"read-back of {op.key!r} returned "
                            f"{(op.value or b'')[:16]!r}, not the last "
                            f"acknowledged write {last.value[:16]!r}")
    return problems


def _digest(ops: List[HistoryOp]) -> str:
    hasher = hashlib.sha256()
    for op in ops:
        hasher.update(repr((op.client, op.kind, op.key, op.value, op.invoked,
                            op.completed, op.outcome)).encode())
    return hasher.hexdigest()


def nearest_rank(values: List[float], pct: float) -> float:
    """The nearest-rank ``pct`` percentile of ``values`` (sorted)."""
    if not values:
        return 0.0
    rank = max(1, math.ceil(pct / 100.0 * len(values)))
    return values[rank - 1]


def _latency_metrics(prefix: str, latencies: List[float],
                     rep: Rep, where: str) -> Dict[str, float]:
    """p50 and the tail: p99.9 from 10,000 samples up, else p99."""
    latencies = sorted(latencies)
    tail = 99.9 if len(latencies) >= 10_000 else 99.0
    rep.notes.append(f"{prefix}: n={len(latencies)} ({where}), tail is "
                     f"p{tail:g}")
    return {f"{prefix}_p50_us": nearest_rank(latencies, 50) * 1e6,
            f"{prefix}_tail_us": nearest_rank(latencies, tail) * 1e6}


def _counters(env: Environment, machines: List[_Machine]) -> Dict[str, float]:
    """Cumulative program counters, summed over ``machines`` in order."""
    out: Dict[str, float] = {"sim.seq": env._seq}

    def add(name: str, value: float) -> None:
        out[name] = out.get(name, 0) + value

    for m in machines:
        dev = m.device.stats
        add("device.reads", dev.num_reads)
        add("device.bytes_read", dev.bytes_read)
        add("device.writes", dev.num_writes)
        add("device.bytes_written", dev.bytes_written)
        add("device.barriers", dev.num_barriers)
        add("device.busy_vs", dev.busy_time)
        add("device.barrier_vs", dev.barrier_time)
        fs = m.fs.stats
        add("fs.fsyncs", fs.num_fsync)
        add("fs.fdatasyncs", fs.num_fdatasync)
        add("fs.hole_punches", fs.num_hole_punches)
        add("fs.bytes_punched", fs.bytes_punched)
        add("fs.allocated_bytes", m.fs.total_allocated_bytes())
        add("page_cache.hits", m.fs.page_cache.hits)
        add("page_cache.misses", m.fs.page_cache.misses)
        db = m.db
        for name, value in vars(db.stats).items():
            add(f"engine.{name}", value)
        add("table_cache.hits", db.table_cache.hits)
        add("table_cache.misses", db.table_cache.misses)
        add("block_cache.hits", db.block_cache.hits)
        add("block_cache.misses", db.block_cache.misses)
        fd_cache = getattr(db, "fd_cache", None)
        add("fd_cache.hits", fd_cache.hits if fd_cache else 0)
        add("fd_cache.misses", fd_cache.misses if fd_cache else 0)
        add("manifest.edits", db.versions.manifest_writes)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _layer_counters(before: Dict[str, float], after: Dict[str, float]
                   ) -> Dict[str, float]:
    """Per-layer counters over the measured phase, from two snapshots."""
    d = {name: after[name] - before[name] for name in after
         if name in before}
    gets = d["engine.gets"]
    return {
        "sim.events": d["sim.seq"],
        "device.reads": d["device.reads"],
        "device.bytes_read": d["device.bytes_read"],
        "device.writes": d["device.writes"],
        "device.bytes_written": d["device.bytes_written"],
        "device.barriers": d["device.barriers"],
        "device.busy_vs": d["device.busy_vs"],
        "device.barrier_vs": d["device.barrier_vs"],
        "fs.fsyncs": d["fs.fsyncs"],
        "fs.fdatasyncs": d["fs.fdatasyncs"],
        "fs.hole_punches": d["fs.hole_punches"],
        "fs.bytes_punched": d["fs.bytes_punched"],
        "fs.allocated_bytes": after["fs.allocated_bytes"],
        "page_cache.hit_ratio": _ratio(
            d["page_cache.hits"],
            d["page_cache.hits"] + d["page_cache.misses"]),
        "engine.stall_vs": d["engine.stall_time"],
        "engine.slowdown_vs": d["engine.slowdown_time"],
        "engine.write_wait_vs": d["engine.write_wait_time"],
        "engine.group_size_mean": _ratio(d["engine.grouped_writes"],
                                         d["engine.group_commits"]),
        "engine.memtable_flushes": d["engine.memtable_flushes"],
        "engine.compactions": d["engine.compactions"],
        "engine.compaction_bytes_written": d["engine.compaction_bytes_written"],
        "engine.compaction_vs": d["engine.compaction_time"],
        "engine.tables_probed_per_get": _ratio(d["engine.tables_probed"], gets),
        "sstable.blocks_read_per_get": _ratio(
            d["block_cache.hits"] + d["block_cache.misses"], gets),
        "table_cache.hit_ratio": _ratio(
            d["table_cache.hits"],
            d["table_cache.hits"] + d["table_cache.misses"]),
        "block_cache.hit_ratio": _ratio(
            d["block_cache.hits"],
            d["block_cache.hits"] + d["block_cache.misses"]),
        "manifest.edits": d["manifest.edits"],
        "core.settled_promotions": d["engine.settled_promotions"],
        "core.group_victims": d["engine.group_victims"],
        "fd_cache.hit_ratio": _ratio(
            d["fd_cache.hits"], d["fd_cache.hits"] + d["fd_cache.misses"]),
    }


def _barriers(before: Dict[str, float], after: Dict[str, float]) -> float:
    return ((after["fs.fsyncs"] + after["fs.fdatasyncs"])
            - (before["fs.fsyncs"] + before["fs.fdatasyncs"]))


#: Host-speed probe: the integer LCG of repro.tools.perfbench.calibrate,
#: cut to a few milliseconds so it can run between stretches of work.
PROBE_ITERATIONS = 50_000
#: The probe's duration on the reference host: scaled times read as
#: seconds on a host where the probe takes this long.
REFERENCE_PROBE_S = 0.008
#: Each closed-loop phase is timed in this many stretches.
STRETCHES = 8


def _probe() -> float:
    started = time.perf_counter()
    x = 1
    for _ in range(PROBE_ITERATIONS):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
    return time.perf_counter() - started


class Stopwatch:
    """Wall time of stretches of work, raw and scaled to a reference host.

    A shared host's speed drifts by tens of percent within seconds
    (other tenants, clock changes).  Each stretch is bracketed by the
    probe, and its wall time is multiplied by ``REFERENCE_PROBE_S`` over
    the mean of the two probes, so drift that slows both cancels out.
    """

    def __init__(self) -> None:
        self.raw = 0.0
        self.scaled = 0.0

    def time(self, work: Callable[..., Any], *args: Any) -> Any:
        """Run ``work(*args)``, adding its wall time; returns its result."""
        before = _probe()
        started = time.perf_counter()
        result = work(*args)
        elapsed = time.perf_counter() - started
        after = _probe()
        self.raw += elapsed
        self.scaled += elapsed * 2 * REFERENCE_PROBE_S / (before + after)
        return result


def _run(env: Environment, event: Any) -> None:
    env.run_until(event)


def _measured(on_measure: Callable[[str], None]
              ) -> Callable[[Environment, Any], None]:
    """A simulate step whose stretches the traced run counts."""
    def simulate(env: Environment, event: Any) -> None:
        on_measure("resume")
        env.run_until(event)
        on_measure("pause")
    return simulate


class _Checkpoints:
    """Events that fire as a phase's ops complete, at even shares."""

    def __init__(self, env: Environment, total: int, parts: int):
        self.marks = [total * (i + 1) // parts for i in range(parts - 1)]
        self.events = [env.event() for _ in self.marks]
        self.done = 0

    def __call__(self) -> None:
        self.done += 1
        passed = bisect.bisect_right(self.marks, self.done)
        if passed and not self.events[passed - 1].triggered:
            self.events[passed - 1].succeed()


def _closed_phase(env: Environment, db: Any,
                  per_client: List[List[Operation]], hist: HistoryRecorder,
                  watch: Stopwatch,
                  simulate: Callable[[Environment, Any], None],
                  after_stretch: Optional[Callable[[int], None]] = None
                  ) -> None:
    """Run one client per op list to completion, in STRETCHES stretches."""
    marks = _Checkpoints(env, sum(len(ops) for ops in per_client), STRETCHES)
    procs = [env.process(_closed_client(env, db, ops, i, hist, marks))
             for i, ops in enumerate(per_client)]
    for index, event in enumerate(marks.events + [env.all_of(procs)]):
        watch.time(simulate, env, event)
        if after_stretch is not None:
            after_stretch(index)


# -- ycsb-a-zipf / ycsb-c-uniform -----------------------------------------------


def run_ycsb(workload: str, inputs: Inputs, rep: Rep,
             on_measure: Callable[[str], None], check: bool) -> None:
    """One rep of a closed-loop YCSB workload on one BoLT machine."""
    setup, measure = Stopwatch(), Stopwatch()
    config = BenchConfig(scale=YCSB_SCALE, record_count=YCSB_RECORDS,
                         value_size=VALUE_BYTES)
    bolt = SYSTEMS["bolt"]

    def build() -> Tuple[Any, Any]:
        stack = new_stack(config)
        return stack, bolt.engine_cls.open_sync(
            stack.env, stack.fs, bolt.options(config.scale), "db")

    stack, db = setup.time(build)
    env = stack.env
    machines = [_Machine(stack.device, stack.fs, db)]
    hist = HistoryRecorder(env)
    before_load = _counters(env, machines)
    _closed_phase(env, db, inputs.load, hist, setup, _run)
    setup.time(_run, env, env.process(db.flush_all()))
    rep.setup_s, rep.setup_raw_s = setup.scaled, setup.raw
    load_end = len(hist.ops)
    before = _counters(env, machines)
    v_start = env.now

    # Write amplification is also shown per half of the measured phase.
    middle: Dict[str, float] = {}

    def after_stretch(index: int) -> None:
        if index == STRETCHES // 2 - 1:
            middle.update(_counters(env, machines))
            middle["writes"] = sum(1 for op in hist.ops[load_end:]
                                   if op.kind == "w")

    _closed_phase(env, db, inputs.measured, hist, measure,
                  _measured(on_measure), after_stretch)
    rep.measured_s, rep.measured_raw_s = measure.scaled, measure.raw
    after = _counters(env, machines)
    v_elapsed = env.now - v_start

    measured = hist.ops[load_end:]
    rep.attempted = len(measured)
    rep.completed = sum(1 for op in measured if op.ok)
    reads = [op.completed - op.invoked for op in measured if op.kind == "r"]
    writes = [op.completed - op.invoked for op in measured if op.kind == "w"]
    v = rep.virtual
    v["v_ops_per_s"] = rep.completed / v_elapsed
    v.update(_latency_metrics("v_read", reads, rep, "measured phase"))
    if writes:
        v.update(_latency_metrics("v_write", writes, rep, "measured phase"))
        user_bytes = len(writes) * RECORD_BYTES
        dev_written = after["device.bytes_written"] - before["device.bytes_written"]
        v["write_amp"] = dev_written / user_bytes
        first = ((middle["device.bytes_written"]
                  - before["device.bytes_written"])
                 / (middle["writes"] * RECORD_BYTES))
        second = ((after["device.bytes_written"]
                   - middle["device.bytes_written"])
                  / ((len(writes) - middle["writes"]) * RECORD_BYTES))
        rep.notes.append(f"write_amp by half of the measured phase: "
                         f"{first:.4f} then {second:.4f}")
    else:
        # No writes are measured: the write metrics describe the load.
        loads = [op.completed - op.invoked for op in hist.ops[:load_end]]
        v.update(_latency_metrics("v_write", loads, rep, "load phase"))
        v["write_amp"] = ((before["device.bytes_written"]
                           - before_load["device.bytes_written"])
                          / (len(loads) * RECORD_BYTES))
        rep.notes.append("write_amp: load phase (the measured phase "
                         "writes nothing)")
    v["space_amp"] = after["fs.allocated_bytes"] / (YCSB_RECORDS * RECORD_BYTES)
    v["barriers_per_kop"] = _barriers(before, after) / rep.completed * 1000
    v.update({f"layer.{k}": x for k, x in
              _layer_counters(before, after).items()})

    _verify(env, db, hist, load_end, rep, check)
    db.close_sync()


# -- cluster-serve ------------------------------------------------------------------


class _Recorder:
    """Server front that keeps every request's completion event."""

    def __init__(self, server: Server):
        self.server = server
        self.done: List[Any] = []

    def submit(self, request: Any) -> Generator[Any, Any, Any]:
        """Submit through the server; keep the completion event."""
        done = yield from self.server.submit(request)
        self.done.append(done)
        return done


class _Gaps:
    """Replays precomputed inter-arrival gaps to an OpenLoopClient."""

    def __init__(self, gaps: List[float]):
        self.next_interval = iter(gaps).__next__


def run_cluster(inputs: Inputs, rep: Rep,
                on_measure: Callable[[str], None], check: bool) -> None:
    """One rep of cluster-serve: svc.Server over a 2x1 ClusterStore."""
    setup, measure = Stopwatch(), Stopwatch()
    env = Environment()
    bolt = SYSTEMS["bolt"]
    config = ClusterConfig(num_shards=2, replicas_per_shard=1)
    cluster = setup.time(
        ClusterStore, env, bolt.engine_cls,
        bolt.options(config.scale).copy(wal_sync=True), config)
    machines = [_Machine(n.device, n.fs, n.db) for n in cluster.nodes()]
    hist = HistoryRecorder(env)

    def quiesce() -> Generator[Any, Any, None]:
        # Every replica has applied everything, then every node has
        # flushed and finished compacting.
        while any(s.replication.applied_through()
                  < s.primary.db.versions.last_sequence
                  for s in cluster.shards):
            yield env.timeout(config.replication_lag)
        for node in cluster.nodes():
            yield from node.db.flush_all()

    _closed_phase(env, cluster, inputs.load, hist, setup, _run)
    setup.time(_run, env, env.process(quiesce()))
    server = Server(env, cluster, num_workers=4, queue_depth=64,
                    policy=POLICY_REJECT)
    rep.setup_s, rep.setup_raw_s = setup.scaled, setup.raw
    load_end = len(hist.ops)

    before = _counters(env, machines)
    svc_before = vars(server.stats).copy()
    applied_before = sum(s.replication.records_applied for s in cluster.shards)
    v_start = env.now
    outcomes_by_rung = []
    rung_lines = []
    samples: Dict[str, float] = {}

    def sample(at: float) -> Generator[Any, Any, None]:
        yield env.timeout(at - env.now)
        stats = server.stats
        samples["in_system"] = stats.accepted - stats.completed
        samples["backlog"] = sum(s.replication.backlog for s in cluster.shards)

    for index, rung in enumerate(inputs.ladder):
        fronts = [_Recorder(server) for _ in rung.ops]
        clients = [OpenLoopClient(env, front, ops, _Gaps(gaps), client_id=i)
                   for i, (front, ops, gaps)
                   in enumerate(zip(fronts, rung.ops, rung.gaps))]
        schedule_end = env.now + max(sum(g) for g in rung.gaps)
        procs = [env.process(c.run(), name=f"loadgen-{c.client_id}")
                 for c in clients]
        procs.append(env.process(sample(schedule_end)))
        measure.time(_measured(on_measure), env, env.all_of(procs))
        outcomes = [d.value for front in fronts for d in front.done]
        outcomes_by_rung.append(outcomes)
        ok = [o for o in outcomes if o.ok]
        refused = sum(1 for o in outcomes if o.status not in
                      (STATUS_OK, STATUS_ERROR))
        p99 = nearest_rank(sorted(o.latency for o in ok), 99)
        rung_lines.append((rung.rate, len(outcomes), refused, p99))
        rep.notes.append(
            f"rung {index} at {rung.rate:.0f} req/s: {len(outcomes)} "
            f"requests, {refused} refused, p99 {p99 * 1e6:.1f} us; at the "
            f"end of its schedule {samples['in_system']:.0f} in the server, "
            f"replication backlog {samples['backlog']:.0f}; peak queue "
            f"depth so far {server.stats.peak_queue_depth}")
    rep.measured_s, rep.measured_raw_s = measure.scaled, measure.raw
    after = _counters(env, machines)
    v_elapsed = env.now - v_start

    everything = [o for outcomes in outcomes_by_rung for o in outcomes]
    rep.attempted = len(everything)
    rep.completed = sum(1 for o in everything if o.ok)
    rep.errors = sum(1 for o in everything if o.status == STATUS_ERROR)
    rep.refused = rep.attempted - rep.completed - rep.errors
    for o in everything:
        request = o.request
        is_write = request.kind != "read"
        outcome = ("ok" if o.ok else "info" if o.status == STATUS_ERROR
                   else "fail")
        # Open-loop clients keep several requests in flight, so a client
        # is not a session in S1's sense: each request is its own.
        hist.ops.append(HistoryOp(
            client=len(hist.ops), op_id=len(hist.ops),
            kind="w" if is_write else "r", key=request.key,
            value=request.payload if is_write else o.value,
            invoked=request.submitted, completed=o.finished,
            outcome=outcome))

    v = rep.virtual
    v["v_ops_per_s"] = rep.completed / v_elapsed
    passing = [rate for rate, _n, refused, p99 in rung_lines
               if refused == 0 and p99 <= P99_LIMIT_S]
    v["v_max_rate"] = max(passing, default=0.0)
    middle = [o for o in outcomes_by_rung[MIDDLE_RUNG] if o.ok]
    where = f"rung {MIDDLE_RUNG} at {LADDER[MIDDLE_RUNG]} req/s"
    v.update(_latency_metrics(
        "v_read", [o.latency for o in middle if o.request.kind == "read"],
        rep, where))
    v.update(_latency_metrics(
        "v_write", [o.latency for o in middle if o.request.kind != "read"],
        rep, where))
    acked_writes = sum(1 for o in everything
                       if o.ok and o.request.kind != "read")
    v["write_amp"] = ((after["device.bytes_written"]
                       - before["device.bytes_written"])
                      / (acked_writes * RECORD_BYTES))
    v["space_amp"] = after["fs.allocated_bytes"] / (CLUSTER_RECORDS
                                                    * RECORD_BYTES)
    v["barriers_per_kop"] = _barriers(before, after) / rep.completed * 1000
    v.update({f"layer.{k}": x for k, x in
              _layer_counters(before, after).items()})
    stats = vars(server.stats)
    queue_delays = sorted(o.queue_delay for o in everything if o.ok)
    v["layer.svc.queue_delay_p99_vus"] = nearest_rank(queue_delays, 99) * 1e6
    v["layer.svc.peak_queue_depth"] = stats["peak_queue_depth"]
    v["layer.svc.rejected"] = stats["rejected"] - svc_before["rejected"]
    v["layer.svc.shed_writes"] = stats["shed_writes"] - svc_before["shed_writes"]
    v["layer.svc.gen_lag_max_vus"] = max(
        o.request.submitted - o.request.intended_start for o in everything) * 1e6
    v["layer.cluster.records_applied"] = sum(
        s.replication.records_applied for s in cluster.shards) - applied_before
    v["layer.cluster.max_lag_vs"] = max(s.replication.max_lag
                                        for s in cluster.shards)
    v["layer.cluster.backlog_end"] = sum(s.replication.backlog
                                         for s in cluster.shards)

    _verify(env, cluster, hist, load_end, rep, check)
    server.close_sync()
    cluster.close_sync()


def run_rep(workload: str, inputs: Inputs, rep: Rep,
            on_measure: Callable[[str], None], check: bool) -> None:
    """Run one rep of ``workload`` into ``rep``.

    ``on_measure("resume")`` and ``on_measure("pause")`` bracket each
    stretch of simulation inside the measured phase (the traced run
    counts its layer totals between them).  ``check`` runs the history
    checker over the rep; reps that produce the same history digest do
    not need it again.
    """
    if workload == "cluster-serve":
        run_cluster(inputs, rep, on_measure, check)
    else:
        run_ycsb(workload, inputs, rep, on_measure, check)


WORKLOAD_NAMES: Tuple[str, ...] = ("ycsb-a-zipf", "ycsb-c-uniform",
                                   "cluster-serve")
