"""Plain-text table rendering for benchmark output and EXPERIMENTS.md,
plus :func:`unified_snapshot` — the single merged view of every counter
a simulated stack produces (engine, filesystem, device, obs metrics).

A snapshot covers one engine *or* a whole :mod:`repro.cluster` store:
pass a ``ClusterStore`` as ``db`` and the engine/device/fs sections
aggregate across every node, per-shard sections (``shard0``...) carry
each shard's own view, and a ``replication`` section reports lag,
shipped records, and failovers."""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

__all__ = ["format_table", "format_markdown_table", "unified_snapshot",
           "aggregate_engine_stats"]


def _stringify(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4g}"
    return str(value)


def format_table(rows: Sequence[Dict[str, object]],
                 title: str = "") -> str:
    """Render dict rows as an aligned ASCII table."""
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    columns = list(rows[0].keys())
    cells = [[_stringify(row.get(col, "")) for col in columns] for row in rows]
    widths = [max(len(col), *(len(row[i]) for row in cells))
              for i, col in enumerate(columns)]
    lines: List[str] = []
    if title:
        lines.append(title)
    header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
    lines.append(header)
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(cell.ljust(widths[i])
                               for i, cell in enumerate(row)))
    return "\n".join(lines)


def _sum_numeric(dicts: Iterable[Dict[str, float]]) -> Dict[str, float]:
    """Key-wise sum of the numeric fields of several flat dicts."""
    total: Dict[str, float] = {}
    for entry in dicts:
        for key, value in entry.items():
            if isinstance(value, bool):
                value = int(value)
            if isinstance(value, (int, float)):
                total[key] = total.get(key, 0) + value
    return total


def aggregate_engine_stats(dbs) -> Dict[str, float]:
    """Roll one ``engine`` section up from several engine instances.

    Counters are key-wise sums of each engine's
    :class:`~repro.lsm.engine.EngineStats`; the cache hit ratios are
    unweighted means across the instances (each engine serves its own
    shard, so the mean is "the typical shard's cache behavior").
    """
    dbs = list(dbs)
    if not dbs:
        return {}
    engine = _sum_numeric(dict(vars(db.stats.snapshot())) for db in dbs)
    engine["engines"] = len(dbs)
    engine["table_cache_hit_ratio"] = (
        sum(db.table_cache.hit_ratio for db in dbs) / len(dbs))
    engine["block_cache_hit_ratio"] = (
        sum(db.block_cache.hit_ratio for db in dbs) / len(dbs))
    return engine


def _cluster_snapshot(cluster, tracer=None, server=None,
                      recorder=None) -> Dict[str, Dict[str, float]]:
    """The cluster flavor of :func:`unified_snapshot`.

    ``device``/``fs`` sum over every node; ``engine`` rolls up the shard
    *primaries* (the serving engines); ``shardN`` sections give each
    shard's own engine/replication view; ``replication`` carries the
    cluster-wide lag/shipping/failover counters.
    """
    nodes = cluster.nodes()
    snap: Dict[str, Dict[str, float]] = {
        "clock": {"virtual_seconds": cluster.env.now},
        "device": _sum_numeric(dict(vars(n.device.stats.snapshot()))
                               for n in nodes),
        "fs": _sum_numeric(dict(vars(n.fs.stats.snapshot()))
                           for n in nodes),
    }
    snap["fs"]["num_barrier_calls"] = sum(
        n.fs.stats.num_barrier_calls for n in nodes)
    snap["engine"] = aggregate_engine_stats(
        shard.primary.db for shard in cluster.shards)
    health = _sum_numeric(dict(shard.primary.db.health.snapshot())
                          for shard in cluster.shards)
    health["read_only_shards"] = sum(
        1 for shard in cluster.shards if shard.primary.db.health.read_only)
    health["quarantined_tables"] = sum(
        len(shard.primary.db._quarantined) for shard in cluster.shards)
    snap["health"] = health
    replication: Dict[str, float] = {
        "failovers": 0, "failed_shards": 0,
        "wal_tail_records_replayed": 0, "records_applied": 0,
        "backlog": 0, "max_lag": 0.0, "replicas": 0,
        "fenced_writes": 0, "fenced_ships": 0, "partition_promotions": 0,
    }
    for shard in cluster.shards:
        replication["failovers"] += shard.failovers
        replication["wal_tail_records_replayed"] += (
            shard.wal_tail_records_replayed)
        replication["fenced_writes"] += shard.fenced_writes
        replication["fenced_ships"] += shard.fenced_ships
        replication["partition_promotions"] += shard.partition_promotions
        replication["replicas"] += len(shard.replicas)
        if shard.state == "failed":
            replication["failed_shards"] += 1
        link = shard.replication
        if link is not None:
            replication["records_applied"] += link.records_applied
            replication["backlog"] += link.backlog
            replication["max_lag"] = max(replication["max_lag"],
                                         link.max_lag)
        per_shard = dict(vars(shard.primary.db.stats.snapshot()))
        per_shard["replicas"] = len(shard.replicas)
        per_shard["failovers"] = shard.failovers
        per_shard["wal_tail_records_replayed"] = (
            shard.wal_tail_records_replayed)
        per_shard["replication_max_lag"] = (link.max_lag if link else 0.0)
        per_shard["epoch"] = shard.epoch
        per_shard["fenced_writes"] = shard.fenced_writes
        per_shard["fenced_ships"] = shard.fenced_ships
        per_shard["read_only"] = int(shard.primary.db.health.read_only)
        snap[f"shard{shard.shard_id}"] = per_shard
    snap["replication"] = replication
    snap["net"] = {key: float(value)
                   for key, value in cluster.fabric.snapshot().items()}
    if tracer is None:
        tracer = getattr(cluster.env, "tracer", None)
    if tracer is not None and getattr(tracer, "enabled", False):
        snap["metrics"] = tracer.metrics.snapshot()
    if server is not None:
        snap["svc"] = server.stats.snapshot()
    if recorder is not None:
        latency: Dict[str, float] = {}
        for kind in recorder.kinds(include_aux=True):
            latency[f"{kind}.count"] = recorder.count(kind)
            latency[f"{kind}.mean"] = recorder.mean(kind)
            latency[f"{kind}.p99"] = recorder.percentile(99.0, kind)
        snap["latency"] = latency
    return snap


def unified_snapshot(stack, db=None, tracer=None, server=None,
                     recorder=None) -> Dict[str, Dict[str, float]]:
    """Merge every counter in a simulated stack into one nested dict.

    Figures, ``dbbench stats`` and trace summaries should all read from
    this so they can never disagree.  Sections:

    * ``clock``   — the virtual time of the snapshot
    * ``device``  — :class:`~repro.storage.DeviceStats` fields
    * ``fs``      — :class:`~repro.storage.FSStats` fields plus the
      derived ``num_barrier_calls`` (the paper's headline count)
    * ``engine``  — :class:`~repro.lsm.engine.EngineStats` fields plus
      cache hit ratios (only when ``db`` is given)
    * ``health``  — :class:`~repro.health.ErrorManager` counters plus
      device ``eio_retries`` and the quarantined-table count (only when
      ``db`` is given)
    * ``tier``    — :class:`~repro.objstore.TieringPolicy` counters
      (demotions, remote request/dollar totals, LSST-cache hit rate and
      miss p999) — only when the engine has tiering installed
    * ``metrics`` — the :class:`~repro.obs.MetricsRegistry` counters and
      gauges (only when a tracer with metrics observes the stack)
    * ``svc``     — :class:`~repro.svc.ServerStats` counters (only when
      a ``server`` is given)
    * ``latency`` — per-kind count/mean/p99 from a
      :class:`~repro.bench.metrics.LatencyRecorder`, aux dimensions
      (``kind.wait``/``kind.service``) included (only when a
      ``recorder`` is given)

    ``stack`` is anything with ``env``/``device``/``fs`` attributes (the
    harness's :class:`~repro.bench.harness.Stack`); ``tracer`` defaults
    to the one installed on ``stack.env``.

    When ``db`` is a multi-shard store (anything with a ``shards``
    attribute — :class:`~repro.cluster.ClusterStore`), ``stack`` may be
    ``None``: the cluster owns its nodes' devices/filesystems, and the
    snapshot aggregates across all of them with per-shard ``shardN``
    sections plus a ``replication`` section.
    """
    if db is not None and hasattr(db, "shards"):
        return _cluster_snapshot(db, tracer=tracer, server=server,
                                 recorder=recorder)
    fs_stats = stack.fs.stats
    snap: Dict[str, Dict[str, float]] = {
        "clock": {"virtual_seconds": stack.env.now},
        "device": dict(vars(stack.device.stats.snapshot())),
        "fs": dict(vars(fs_stats.snapshot())),
    }
    snap["fs"]["num_barrier_calls"] = fs_stats.num_barrier_calls
    if db is not None:
        engine: Dict[str, float] = dict(vars(db.stats.snapshot()))
        engine["table_cache_hit_ratio"] = db.table_cache.hit_ratio
        engine["block_cache_hit_ratio"] = db.block_cache.hit_ratio
        snap["engine"] = engine
        health = dict(db.health.snapshot())
        health["eio_retries"] = stack.device.stats.num_eio_retries
        health["quarantined_tables"] = len(db._quarantined)
        snap["health"] = health
        tiering = getattr(db, "tiering", None)
        if tiering is not None:
            # Tier counters exist only when the objstore subsystem was
            # installed, so the untiered snapshot stays byte-identical.
            snap["tier"] = tiering.snapshot()
    if tracer is None:
        tracer = getattr(stack.env, "tracer", None)
    if tracer is not None and getattr(tracer, "enabled", False):
        snap["metrics"] = tracer.metrics.snapshot()
    if server is not None:
        snap["svc"] = server.stats.snapshot()
    if recorder is not None:
        latency: Dict[str, float] = {}
        for kind in recorder.kinds(include_aux=True):
            latency[f"{kind}.count"] = recorder.count(kind)
            latency[f"{kind}.mean"] = recorder.mean(kind)
            latency[f"{kind}.p99"] = recorder.percentile(99.0, kind)
        snap["latency"] = latency
    return snap


def format_markdown_table(rows: Sequence[Dict[str, object]]) -> str:
    """Render dict rows as a GitHub-flavored markdown table."""
    if not rows:
        return "(no rows)"
    columns = list(rows[0].keys())
    lines = ["| " + " | ".join(columns) + " |",
             "|" + "|".join("---" for _ in columns) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(_stringify(row.get(col, ""))
                                       for col in columns) + " |")
    return "\n".join(lines)
