"""The consistency oracle is itself tested.

Two halves.  The history checker's O(W)-per-read superseded test is
checked against the original pairwise formula, kept here as the
reference.  And each chaos harness is run with a bug planted in the
store it drives — an acked write silently dropped, a read that returns
the previous value, a write that raised ReadOnlyError but was applied —
and must report the right R1/R2 clause; the same run without the plant
passes.  The serial harnesses invoke each op at the very instant the
last one completed, so the bugs are also planted across such ties.  The
plants live only in these tests (``monkeypatch``), never in library
code.
"""

import itertools
import math
import random
from typing import List, Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import ClusterStore
from repro.faults import (
    ChaosConfig,
    ClusterChaosConfig,
    HistoryOp,
    HistoryRecorder,
    NemesisConfig,
    chaos_engine,
    check_history,
    cluster_chaos,
    nemesis_chaos,
)
from repro.faults.history import (
    FAIL,
    _check_read,
    _describe,
    _KeyHistory,
    _partition,
)
from repro.health import ReadOnlyError
from repro.lsm.engine import LSMEngine
from repro.sim import Environment


# ---------------------------------------------------------------------------
# check_history: the linear superseded test equals the pairwise one
# ---------------------------------------------------------------------------


def _reference_check_read(read: HistoryOp,
                          hist: _KeyHistory) -> Optional[str]:
    """The original R1+R2 check: superseded decided pairwise, O(W^2)."""
    allowed: List[Optional[bytes]] = []
    acked_before = [w for w in hist.writes if w.ok and w.end < read.start]
    if not acked_before:
        allowed.append(None)
    for write in hist.writes:
        if write.outcome == FAIL:
            continue
        if write.start >= read.end:
            continue
        superseded = any(w2.ok
                         and w2.start > write.end
                         and w2.end < read.start
                         for w2 in hist.writes)
        if superseded:
            continue
        allowed.append(write.value)
    if read.value in allowed:
        return None
    writers = [w for w in hist.writes if w.value == read.value]
    if read.value is not None and not writers:
        return f"R1 phantom value: {_describe(read)} returned a value no write ever wrote"
    if writers and all(w.outcome == FAIL for w in writers):
        return (f"R1 fenced value resurfaced: {_describe(read)} returned "
                f"the value of failed {_describe(writers[0])}")
    if writers and all(w.start >= read.end for w in writers):
        return (f"R1 value from the future: {_describe(read)} returned "
                f"{_describe(writers[0])} invoked after the read completed")
    if read.value is None:
        return (f"R2 lost update: {_describe(read)} returned None but "
                f"{_describe(acked_before[-1])} was acked before it")
    return (f"R2 stale read: {_describe(read)} returned a value "
            f"superseded before the read began")


# Small integer times make ties and overlaps common; "info" ops never
# complete, exactly as the recorder leaves them.  A stamped history
# orders the events of each instant as a recorder would; an unstamped
# one leaves ties unordered, as ops built by hand do.
_op_spec = st.tuples(
    st.sampled_from(["r", "w"]),
    st.integers(min_value=0, max_value=2),           # client
    st.integers(min_value=0, max_value=12),          # invoked
    st.integers(min_value=0, max_value=6),           # duration
    st.sampled_from(["ok", "ok", "ok", "fail", "info"]),
    st.integers(min_value=-1, max_value=8),          # read's value pick
)


def _history(specs, stamp_seed: Optional[int] = None) -> List[HistoryOp]:
    ops: List[HistoryOp] = []
    for op_id, (kind, client, invoked, duration, outcome,
                pick) in enumerate(specs):
        completed = math.inf if outcome == "info" else float(
            invoked + duration)
        if kind == "w":
            value: Optional[bytes] = b"v%d" % op_id
        elif pick < 0:
            value = None
        else:
            value = b"v%d" % pick  # may name a read, i.e. a phantom
        ops.append(HistoryOp(client=client, op_id=op_id, kind=kind,
                             key=b"k", value=value,
                             invoked=float(invoked), completed=completed,
                             outcome=outcome))
    if stamp_seed is not None:
        # Shuffle the events of each instant, keeping every op's invoke
        # before its own completion, and stamp them in that order.
        rng = random.Random(stamp_seed)
        events = []
        for op in ops:
            draws = sorted((rng.random(), rng.random()))
            events.append((op.invoked, draws[0], op, "invoke_seq"))
            events.append((op.completed, draws[1], op, "complete_seq"))
        events.sort(key=lambda e: e[:2])
        for seq, (_time, _draw, op, name) in enumerate(events, 1):
            setattr(op, name, seq)
    return ops


class TestLinearSupersededCheck:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(_op_spec, min_size=1, max_size=12),
           st.one_of(st.none(), st.integers(min_value=0)))
    def test_matches_pairwise_reference(self, specs, stamp_seed):
        hist = _partition(_history(specs, stamp_seed))[b"k"]
        for read in hist.reads:
            if read.ok:
                assert _check_read(read, hist) == \
                    _reference_check_read(read, hist)


# ---------------------------------------------------------------------------
# ties: events at one virtual instant are ordered by the recorder's stamps
# ---------------------------------------------------------------------------


def _instant_history(steps) -> List[HistoryOp]:
    """Record ``(kind, value)`` steps on one key, all at virtual time 0."""
    recorder = HistoryRecorder(Environment())
    for kind, value in steps:
        op = recorder.invoke(0, kind, b"k", value if kind == "w" else None)
        recorder.ok(op, value)
    return recorder.ops


class TestTiesAtOneInstant:
    def test_back_to_back_writes_supersede(self):
        ops = _instant_history([("w", b"v1"), ("w", b"v2"), ("r", b"v1")])
        violations = check_history(ops)
        assert _r_clause(violations, "R2 stale read")

    def test_read_right_after_first_write_sees_it(self):
        ops = _instant_history([("w", b"v1"), ("r", None)])
        assert _r_clause(check_history(ops), "R2 lost update")

    def test_in_order_history_is_clean(self):
        ops = _instant_history([("w", b"v1"), ("r", b"v1"), ("w", b"v2"),
                                ("r", b"v2")])
        assert check_history(ops) == []

    def test_unstamped_ties_stay_concurrent(self):
        write = HistoryOp(client=0, op_id=0, kind="w", key=b"k",
                          value=b"v1", invoked=0.0, completed=1.0,
                          outcome="ok")
        read = HistoryOp(client=1, op_id=1, kind="r", key=b"k", value=None,
                         invoked=1.0, completed=1.0, outcome="ok")
        assert check_history([write, read]) == []


# ---------------------------------------------------------------------------
# planted bugs: every harness must catch them
# ---------------------------------------------------------------------------


def _r_clause(violations: List[str], clause: str) -> bool:
    return any(v.startswith(clause) for v in violations)


def _plant_dropped_ack(monkeypatch, cls, nth_put: int) -> None:
    """The ``nth_put``-th put is acknowledged but never applied."""
    original = cls.put
    calls = itertools.count(1)

    def put(self, key, value):
        if next(calls) == nth_put:
            return 0.0
        return (yield from original(self, key, value))

    monkeypatch.setattr(cls, "put", put)


def _plant_stale_read(monkeypatch, cls) -> None:
    """One read returns the value its key held before the latest write.

    Fires on the first read whose key has two acked writes, the older
    completed before the newer was invoked and the newer completed
    before the read began — so the returned value was strictly
    superseded, never a legal concurrent outcome.
    """
    original_put, original_get = cls.put, cls.get
    acked = {}
    planted = []

    def put(self, key, value):
        invoked = self.env.now
        result = yield from original_put(self, key, value)
        acked.setdefault(key, []).append((invoked, self.env.now, value))
        return result

    def get(self, key, *args):
        began = self.env.now
        got = yield from original_get(self, key, *args)
        writes = acked.get(key, [])
        if not planted and len(writes) >= 2:
            (_, older_done, older), (newer_invoked, newer_done, newer) = \
                writes[-2:]
            if got == newer and older_done < newer_invoked \
                    and newer_done < began:
                planted.append(key)
                return older
        return got

    monkeypatch.setattr(cls, "put", put)
    monkeypatch.setattr(cls, "get", get)


def _plant_rejected_but_applied(monkeypatch, nth_put: int) -> None:
    """The ``nth_put``-th engine put is applied, then reports ReadOnly."""
    original = LSMEngine.put
    calls = itertools.count(1)

    def put(self, key, value):
        planted = next(calls) == nth_put
        result = yield from original(self, key, value)
        if planted:
            raise ReadOnlyError("planted: rejected after applying")
        return result

    monkeypatch.setattr(LSMEngine, "put", put)


def _plant_read_right_after_first_write(monkeypatch, cls) -> List[bytes]:
    """A read issued the instant a key's first write acked returns None.

    Returns the list the planted keys are appended to.
    """
    original_put, original_get = cls.put, cls.get
    written = set()
    last = [None]  # key of the op just acked, if it was a first write
    planted: List[bytes] = []

    def put(self, key, value):
        last[0] = None
        result = yield from original_put(self, key, value)
        last[0] = None if key in written else key
        written.add(key)
        return result

    def get(self, key, *args):
        got = yield from original_get(self, key, *args)
        right_after, last[0] = last[0], None
        if not planted and right_after == key:
            planted.append(key)
            return None
        return got

    monkeypatch.setattr(cls, "put", put)
    monkeypatch.setattr(cls, "get", get)
    return planted


def _plant_drop_back_to_back(monkeypatch, cls) -> List[bytes]:
    """A write issued the instant a write to its key acked is dropped.

    The dropped write is acknowledged at once and never applied.
    Returns the list the dropped keys are appended to.
    """
    original_put, original_get = cls.put, cls.get
    last = [None]  # key of the write just acked, if the last op was one
    planted: List[bytes] = []

    def put(self, key, value):
        if last[0] == key:
            planted.append(key)
            return 0.0
        last[0] = None
        result = yield from original_put(self, key, value)
        last[0] = key
        return result

    def get(self, key, *args):
        last[0] = None
        return (yield from original_get(self, key, *args))

    monkeypatch.setattr(cls, "put", put)
    monkeypatch.setattr(cls, "get", get)
    return planted


_CHAOS = ChaosConfig(num_ops=200)
#: A schedule whose serial mix has both planted tie patterns, each with
#: a later read of the key as witness.
_CHAOS_TIES = ChaosConfig(num_ops=200, seed=4)


class TestChaosEngineOracle:
    def _clean(self):
        result = chaos_engine("bolt", _CHAOS)
        assert result.ok, result.violations
        return result

    def test_dropped_ack_is_reported(self, monkeypatch):
        clean = self._clean()
        _plant_dropped_ack(monkeypatch, LSMEngine,
                           clean.writes_acked + clean.writes_rejected)
        result = chaos_engine("bolt", _CHAOS)
        assert not result.ok
        assert _r_clause(result.violations, "R2 ")

    def test_stale_read_is_reported(self, monkeypatch):
        self._clean()
        _plant_stale_read(monkeypatch, LSMEngine)
        result = chaos_engine("bolt", _CHAOS)
        assert not result.ok
        assert _r_clause(result.violations, "R2 stale read")

    def test_rejected_but_applied_write_is_reported(self, monkeypatch):
        clean = self._clean()
        _plant_rejected_but_applied(
            monkeypatch, clean.writes_acked + clean.writes_rejected)
        result = chaos_engine("bolt", _CHAOS)
        assert not result.ok
        assert _r_clause(result.violations, "R1 fenced value resurfaced")

    def test_read_right_after_first_write_is_reported(self, monkeypatch):
        assert chaos_engine("bolt", _CHAOS_TIES).ok
        planted = _plant_read_right_after_first_write(monkeypatch, LSMEngine)
        result = chaos_engine("bolt", _CHAOS_TIES)
        assert planted and not result.ok
        assert _r_clause(result.violations, "R2 lost update")

    def test_dropped_back_to_back_write_is_reported(self, monkeypatch):
        assert chaos_engine("bolt", _CHAOS_TIES).ok
        planted = _plant_drop_back_to_back(monkeypatch, LSMEngine)
        result = chaos_engine("bolt", _CHAOS_TIES)
        assert planted and not result.ok
        assert _r_clause(result.violations, "R2 stale read")


_CLUSTER = ClusterChaosConfig(num_ops=240, seed=5)
_CLUSTER_TIES = ClusterChaosConfig(num_ops=240, seed=2)


class TestClusterChaosOracle:
    def _clean(self):
        result = cluster_chaos(_CLUSTER)
        assert result.ok, result.violations
        return result

    def test_dropped_ack_is_reported(self, monkeypatch):
        clean = self._clean()
        _plant_dropped_ack(monkeypatch, ClusterStore,
                           clean.writes_acked + clean.writes_rejected)
        result = cluster_chaos(_CLUSTER)
        assert not result.ok
        assert _r_clause(result.violations, "R2 ")

    def test_stale_read_is_reported(self, monkeypatch):
        self._clean()
        _plant_stale_read(monkeypatch, ClusterStore)
        result = cluster_chaos(_CLUSTER)
        assert not result.ok
        assert _r_clause(result.violations, "R2 stale read")

    def test_read_right_after_first_write_is_reported(self, monkeypatch):
        assert cluster_chaos(_CLUSTER_TIES).ok
        planted = _plant_read_right_after_first_write(monkeypatch,
                                                      ClusterStore)
        result = cluster_chaos(_CLUSTER_TIES)
        assert planted and not result.ok
        assert _r_clause(result.violations, "R2 lost update")

    def test_dropped_back_to_back_write_is_reported(self, monkeypatch):
        assert cluster_chaos(_CLUSTER_TIES).ok
        planted = _plant_drop_back_to_back(monkeypatch, ClusterStore)
        result = cluster_chaos(_CLUSTER_TIES)
        assert planted and not result.ok
        assert _r_clause(result.violations, "R2 stale read")


_NEMESIS = NemesisConfig(ops_per_client=80, seed=19)


class TestNemesisOracle:
    def _clean(self):
        result = nemesis_chaos(_NEMESIS)
        assert result.ok, result.violations
        return result

    def test_dropped_ack_is_reported(self, monkeypatch):
        clean = self._clean()
        _plant_dropped_ack(monkeypatch, ClusterStore, clean.writes_acked)
        result = nemesis_chaos(_NEMESIS)
        assert not result.ok
        assert _r_clause(result.violations, "R2 ")

    def test_stale_read_is_reported(self, monkeypatch):
        self._clean()
        _plant_stale_read(monkeypatch, ClusterStore)
        result = nemesis_chaos(_NEMESIS)
        assert not result.ok
        assert _r_clause(result.violations, "R2 stale read")


@pytest.mark.parametrize("harness", ["chaos", "cluster", "nemesis"])
def test_phantom_key_in_final_scan_is_reported(harness, monkeypatch):
    """A row no write ever touched surfaces as an R1 phantom."""
    cls = LSMEngine if harness == "chaos" else ClusterStore
    original = cls.scan

    def scan(self, start_key, count, *args):
        rows = yield from original(self, start_key, count, *args)
        return rows + [(b"zz-never-written", b"ghost")]

    monkeypatch.setattr(cls, "scan", scan)
    if harness == "chaos":
        violations = chaos_engine("bolt", _CHAOS).violations
    elif harness == "cluster":
        violations = cluster_chaos(_CLUSTER).violations
    else:
        violations = nemesis_chaos(_NEMESIS).violations
    assert _r_clause(violations, "R1 phantom value")
