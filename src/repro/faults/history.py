"""Jepsen-style operation-history recording and consistency checking.

The cluster promises per-key linearizability (docs/FAULT_MODEL.md §6,
§7): every acked write is durable, reads never return values that were
never written or that fencing rejected, and each client's view moves
forward.  Under a nemesis — partitions, gray failures, kill-shard chaos
— those claims stop being obvious, so this module machine-checks them:
a :class:`HistoryRecorder` logs every client operation's invoke/complete
interval against virtual time, and :func:`check_history` replays the
log looking for witnesses of a violation.

The checker is *sound, not complete*: every violation it reports is a
real linearizability violation (no false positives from concurrency),
built from the strict interval order only — op A precedes op B iff A
completed before B was invoked.  Events of one virtual instant (a
serial client's next invoke and its last completion) are ordered by the
recorder's stamps, each event's rank within its instant; ops built by
hand carry none, so their ties stay unordered.  It enforces three
clauses per key:

* **R1 — reads return real values.**  A read may only return a value
  some write actually wrote (or ``None`` before any write could have
  settled), and never a value whose write *failed* — a fenced or
  otherwise rejected write must be invisible forever.
* **R2 — no stale reads.**  A read may not return a write that some
  *other* acked write strictly superseded before the read began: if
  ``W1.completed < W2.invoked`` and ``W2.completed < R.invoked``, then
  ``R`` returning ``W1``'s value (or ``None`` over both) is a lost
  update.
* **S1 — monotonic sessions.**  One client's operations, in program
  order, never observe a write strictly older than a write the same
  client already observed (read-your-writes + monotonic reads).

Indeterminate ops (client never saw a response: crashed mid-call,
abandoned at teardown) stay ``info`` — their effects are allowed but
not required, exactly like Jepsen's ``:info``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["HistoryOp", "HistoryRecorder", "check_history"]

#: Operation outcomes.
OK = "ok"          # response reached the client
FAIL = "fail"      # typed rejection: the op definitely did NOT happen
INFO = "info"      # indeterminate: may or may not have happened


@dataclass
class HistoryOp:
    """One client operation's invoke/complete record."""

    client: int
    op_id: int
    kind: str                    # "r" | "w"
    key: bytes
    #: Write payload, or the value a read returned (filled at ok()).
    value: Optional[bytes]
    invoked: float
    completed: float = math.inf
    outcome: str = INFO
    error: str = ""
    #: Recorder stamps: each event's rank within its virtual instant.
    #: The defaults order nothing within an instant.
    invoke_seq: float = -math.inf
    complete_seq: float = math.inf

    @property
    def ok(self) -> bool:
        """True when the client saw a successful response."""
        return self.outcome == OK

    @property
    def start(self) -> Tuple[float, float]:
        """When the op was invoked, ties broken by the event stamp."""
        return (self.invoked, self.invoke_seq)

    @property
    def end(self) -> Tuple[float, float]:
        """When the op completed; ``a.end < b.start``: a precedes b."""
        return (self.completed, self.complete_seq)


class HistoryRecorder:
    """Collects :class:`HistoryOp` entries against the virtual clock."""

    def __init__(self, env: Any):
        self.env = env
        self.ops: List[HistoryOp] = []
        self._instant = -math.inf
        self._seq = 0

    def tick(self) -> int:
        """Stamp one event: its rank among this instant's events."""
        if self.env.now > self._instant:  # the clock only moves forward
            self._instant, self._seq = self.env.now, 0
        self._seq += 1
        return self._seq

    def invoke(self, client: int, kind: str, key: bytes,
               value: Optional[bytes] = None) -> HistoryOp:
        """Record an operation invocation; complete it via ok()/fail()."""
        op = HistoryOp(client=client, op_id=len(self.ops), kind=kind,
                       key=key, value=value, invoked=self.env.now,
                       invoke_seq=self.tick())
        self.ops.append(op)
        return op

    def ok(self, op: HistoryOp, value: Optional[bytes] = None) -> None:
        """The client saw a successful response (reads carry a value)."""
        op.completed, op.complete_seq = self.env.now, self.tick()
        op.outcome = OK
        if op.kind == "r":
            op.value = value

    def fail(self, op: HistoryOp, error: str) -> None:
        """The client saw a typed rejection: the op did not happen."""
        op.completed, op.complete_seq = self.env.now, self.tick()
        op.outcome = FAIL
        op.error = error


@dataclass
class _KeyHistory:
    """Per-key op partition used by the checker."""

    writes: List[HistoryOp] = field(default_factory=list)
    reads: List[HistoryOp] = field(default_factory=list)


def _partition(ops: List[HistoryOp]) -> Dict[bytes, _KeyHistory]:
    by_key: Dict[bytes, _KeyHistory] = {}
    for op in ops:
        hist = by_key.setdefault(op.key, _KeyHistory())
        if op.kind == "w":
            hist.writes.append(op)
        else:
            hist.reads.append(op)
    return by_key


def _describe(op: HistoryOp) -> str:
    value = "None" if op.value is None else repr(op.value[:24])
    return (f"op{op.op_id}(client {op.client} {op.kind} "
            f"key={op.key!r} value={value} "
            f"[{op.invoked:.6f}, {op.completed:.6f}] {op.outcome})")


def _check_read(read: HistoryOp, hist: _KeyHistory) -> Optional[str]:
    """R1+R2 for one completed read; returns a violation or None."""
    # Allowed values: every non-failed write whose effect could have
    # been visible (invoked before the read completed) and that no
    # other acked write strictly superseded before the read began.
    allowed: List[Optional[bytes]] = []
    acked_before = [w for w in hist.writes if w.ok and w.end < read.start]
    if not acked_before:
        # Nothing is *guaranteed* visible yet: the initial None (or any
        # concurrent write's value) is legal.
        allowed.append(None)
    # A write is strictly overwritten before the read began iff some
    # write acked before the read was invoked after it completed; the
    # latest such invocation decides that for every write at once.
    floor = max((w.start for w in acked_before), default=(-math.inf,))
    for write in hist.writes:
        if write.outcome == FAIL:
            continue  # fenced/rejected: must never be visible
        if write.start >= read.end:
            continue  # from the future: cannot have been visible
        if floor > write.end:
            continue  # strictly overwritten before the read began
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


def _check_sessions(ops: List[HistoryOp]) -> List[str]:
    """S1: per-client, per-key monotonic observations."""
    violations: List[str] = []
    # Unique write payloads are assumed (the harness constructs them);
    # map each value back to its write op.
    writer_of: Dict[tuple, HistoryOp] = {}
    for op in ops:
        if op.kind == "w" and op.value is not None:
            writer_of[(op.key, op.value)] = op
    last_seen: Dict[tuple, HistoryOp] = {}
    for op in sorted(ops, key=lambda o: o.op_id):
        if not op.ok:
            continue
        if op.kind == "w":
            observed: Optional[HistoryOp] = op
        else:
            if op.value is None:
                continue
            observed = writer_of.get((op.key, op.value))
            if observed is None:
                continue  # R1 reports phantoms; skip here
        session = (op.client, op.key)
        prior = last_seen.get(session)
        if prior is not None and observed.end < prior.start:
            # The newly observed write strictly precedes one this
            # client already observed: the session moved backwards.
            violations.append(
                f"S1 session regression: client {op.client} observed "
                f"{_describe(observed)} after {_describe(prior)}")
        last_seen[session] = observed
    return violations


def check_history(ops: List[HistoryOp]) -> List[str]:
    """Check a completed history; returns human-readable violations.

    Every returned string is a definite violation of per-key
    linearizability under the strict interval order — an empty list
    means no witness was found (not a proof of linearizability, but
    the classes of bug this harness hunts — lost acked writes, fenced
    values resurfacing, stale reads after promotion, session
    regressions — all produce witnesses of exactly these shapes).
    """
    violations: List[str] = []
    by_key = _partition(ops)
    for key in sorted(by_key):
        hist = by_key[key]
        for read in hist.reads:
            if not read.ok:
                continue
            problem = _check_read(read, hist)
            if problem is not None:
                violations.append(problem)
    violations.extend(_check_sessions(ops))
    return violations
