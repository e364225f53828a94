"""Primary → replica WAL shipping over the network fabric.

A :class:`ReplicationLink` carries one primary's committed group-commit
records to one replica.  The primary's commit leader calls
:meth:`ReplicationLink.ship` (via the engine's ``wal_shipper`` hook)
right after its WAL barrier; the link sends each record through the
cluster's :class:`~repro.cluster.net.NetworkFabric` and the replica
applies it through ``db.write`` — i.e. through the replica's **own**
group-commit path (``wal.group_append``), so replica state is as
crash-consistent as any primary's.

Every send is routed through the fabric.  A partitioned link refuses
the send *synchronously* (before any scheduling point), the shipper
retries with seeded exponential-backoff-with-jitter, and a promotion
that bumps the shard epoch turns the next retry into a typed
:class:`~repro.cluster.net.FencedError` — the late write is rejected
instead of silently diverging the replica set.  Accepted messages are
never lost (loss = retransmit delay, TCP-like); delivery may be
delayed, duplicated, or reordered, and the replica side resequences so
records always apply in primary-sequence order.  An unconfigured
cluster's fabric is the zero-fault wire: every record arrives exactly
``replication_lag`` after it was shipped, in order, once.

The backlog is bounded: ``ship`` blocks the primary's commit leader
while ``max_backlog`` records are queued behind the one being
delivered — explicit backpressure that keeps replication lag within a
configured bound instead of letting a slow replica fall arbitrarily
behind.

The link is deliberately *asynchronous*: an ack does not wait for the
replica.  The durability story for acked writes therefore rests on the
primary's own synced WAL plus failover tail replay
(:mod:`repro.cluster.failover`), not on shipping winning a race.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Tuple

from ..lsm.wal import WriteBatch
from ..sim import Condition, Environment, Event
from .net import FencedError, NetworkFabric

__all__ = ["ReplicationLink", "ShardReplication"]

#: One shipped record: (first_seq, last_seq, encoded batch, sent at).
_Message = Tuple[int, int, bytes, float]


class ReplicationLink:
    """Ships committed WAL records from one primary to one replica."""

    def __init__(self, env: Environment, shard_id: int, replica: Any,
                 fabric: NetworkFabric, max_backlog: int = 64,
                 src: str = "", shard: Any = None, epoch: int = 1,
                 retry_initial: float = 0.001, retry_cap: float = 0.05):
        if max_backlog < 1:
            raise ValueError("max_backlog must be >= 1")
        self.env = env
        self.shard_id = shard_id
        self.replica = replica
        self.max_backlog = max_backlog
        self.fabric = fabric
        self.src = src
        self.shard = shard
        #: Shard epoch this link was wired under; a bumped shard epoch
        #: fences every send and every late delivery on this link.
        self.epoch = epoch
        self.retry_initial = retry_initial
        self.retry_cap = retry_cap
        #: Arrived-but-unapplied resequencing buffer keyed by first_seq.
        self._arrived: Dict[int, _Message] = {}
        #: Accepted messages (duplicates included) not yet applied or
        #: dropped, and the subset still on the wire.
        self._outstanding = 0
        self._in_flight = 0
        self._work = Condition(env, name=f"repl-s{shard_id}-work")
        self._space = Condition(env, name=f"repl-s{shard_id}-space")
        self._stopped = False
        self._severed = False
        #: Records applied on the replica / observed lag high-water mark.
        self.records_applied = 0
        self.max_lag = 0.0
        #: Out-of-order arrivals held back / duplicate deliveries dropped.
        self.resequenced = 0
        self.duplicates_dropped = 0
        self._proc = env.process(
            self._run(), name=f"repl-s{shard_id}-{replica.node_id}")

    # -- primary side ---------------------------------------------------

    def ship(self, first_seq: int, last_seq: int, record: bytes
             ) -> Generator[Event, Any, None]:
        """Send one committed record: backpressure, retry, fence.

        The epoch check and the accept/refuse verdict both happen with
        no scheduling point in between the commit path's memtable insert
        and the first refusal — so a write that is going to be fenced is
        never observable by a read on the old primary (reads snapshot
        the engine sequence at entry, and the commit leader holds the
        engine mutex until ship returns or raises).
        """
        while self.backlog >= self.max_backlog and not self._stopped:
            yield self._space.wait()
        if self._stopped:
            # Link torn down (failover in progress): drop the record.
            # Tail replay reads it back from the primary's synced WAL.
            return
        fabric = self.fabric
        attempt = 0
        while True:
            self._check_fence(first_seq, last_seq)
            delay = fabric.try_send(self.src, self.replica.node_id)
            if delay is not None:
                break
            # Connection refused (partition): back off and retry.  The
            # bounded budget is the fence itself — promotion bumps the
            # epoch, and the next retry raises FencedError, degrading
            # to the park-don't-fail retry in Shard.perform.
            attempt += 1
            yield self.env.timeout(
                fabric.backoff(attempt, self.retry_initial, self.retry_cap))
        message = (first_seq, last_seq, record, self.env.now)
        self._send(delay, message)
        dup = fabric.duplicate_delay(delay)
        if dup is not None:
            self._send(dup, message)

    def _send(self, delay: float, message: _Message) -> None:
        """Put one accepted message on the wire for ``delay`` seconds."""
        self._outstanding += 1
        self._in_flight += 1
        self.env.call_later(delay, lambda: self._deliver(message))

    def _check_fence(self, first_seq: int, last_seq: int) -> None:
        """Raise FencedError when the shard has moved past our epoch."""
        if self.shard is not None and self.shard.epoch > self.epoch:
            num_ops = last_seq - first_seq + 1
            self.shard.note_fenced_write(num_ops)
            raise FencedError(
                f"shard {self.shard_id} epoch {self.shard.epoch} fences "
                f"link epoch {self.epoch}: write seq {first_seq}.."
                f"{last_seq} rejected")

    def applied_through(self) -> int:
        """Primary sequence number the replica has applied through."""
        return self.replica.applied_primary_seq

    @property
    def outstanding(self) -> int:
        """Accepted-but-unapplied messages (the failover drain waits on it)."""
        return self._outstanding

    @property
    def backlog(self) -> int:
        """Records queued behind the one being delivered."""
        return max(0, self._outstanding - 1)

    # -- replica side ---------------------------------------------------

    def _deliver(self, message: _Message) -> None:
        """A message comes off the wire into the resequencing buffer."""
        self._in_flight -= 1
        if self._severed:
            return  # the connection reset dropped it (counted by sever)
        first = message[0]
        if first in self._arrived:
            # Duplicate delivery of an in-buffer record.
            self.duplicates_dropped += 1
            self._outstanding -= 1
            self._space.notify_all()
        else:
            self._arrived[first] = message
        self._work.notify_all()

    def _run(self) -> Generator[Event, Any, None]:
        """Receive loop: apply arrivals in seq order until torn down."""
        while True:
            progressed = yield from self._apply_arrived()
            if progressed:
                continue
            if self._stopped and (self._severed or not self._in_flight):
                # A sever can drop a record's predecessor off the wire
                # and leave an unappliable gap behind; failover tail
                # replay supersedes whatever is left, so discard it.
                self._outstanding -= len(self._arrived)
                self._arrived.clear()
                self._space.notify_all()
                return
            yield self._work.wait()

    def _apply_arrived(self) -> Generator[Event, Any, bool]:
        """Apply every in-order record in the buffer; True if any."""
        progressed = False
        if self.shard is not None and self.epoch < self.shard.epoch:
            # The shard moved to a newer epoch: everything this link
            # still holds is stale-primary traffic.  Reject it all
            # (gray failure: the old primary could still reach this
            # replica after promotion) so the link drains and stops.
            for first in sorted(self._arrived):
                _f, last, _record, _sent = self._arrived.pop(first)
                self.shard.note_fenced_ship(last - first + 1)
                self._outstanding -= 1
                progressed = True
            if progressed:
                self._space.notify_all()
            return progressed
        while self._arrived:
            expected = self.replica.applied_primary_seq + 1
            stale = [first for first in self._arrived
                     if self._arrived[first][1] < expected]
            for first in stale:
                # Duplicate of an already-applied record (or a replayed
                # prefix after failover): drop it.
                del self._arrived[first]
                self.duplicates_dropped += 1
                self._outstanding -= 1
                progressed = True
                self._space.notify_all()
            entry = self._arrived.pop(expected, None)
            if entry is None:
                if self._arrived and not stale:
                    # A successor arrived before its predecessor:
                    # head-of-line wait while the wire catches up.
                    self.resequenced += 1
                    return progressed
                continue
            first, last, record, sent = entry
            if self.shard is not None and self.epoch < self.shard.epoch:
                # Stale-epoch delivery (gray failure: the old primary
                # could still reach this replica after promotion).
                self.shard.note_fenced_ship(last - first + 1)
                self._outstanding -= 1
                progressed = True
                self._space.notify_all()
                continue
            _first, batch = WriteBatch.decode(record)
            yield from self.replica.db.write(batch)
            self.replica.applied_primary_seq = last
            self.records_applied += 1
            self._outstanding -= 1
            progressed = True
            self._space.notify_all()
            lag = self.env.now - sent
            if lag > self.max_lag:
                self.max_lag = lag
            tracer = self.env.tracer
            if tracer.enabled:
                tracer.gauge(f"cluster.shard{self.shard_id}.replication_lag",
                             lag)
                tracer.count("cluster.records_shipped")
        return progressed

    def sever(self) -> None:
        """Primary death: lose everything not yet *delivered*.

        Messages still on the wire model bytes in flight — a dead
        primary's connection reset drops them (their delivery callbacks
        find the link severed and discard them), so only the WAL tail
        can bring them back.  Records already arrived at the replica
        survive and drain; a record mid-apply is allowed to finish
        (never torn).
        """
        self._severed = True
        self._stopped = True
        self._outstanding -= self._in_flight
        self._work.notify_all()
        self._space.notify_all()

    def stop(self) -> Generator[Event, Any, None]:
        """Tear the link down; an in-flight apply finishes first.

        Never interrupts the apply coroutine: a half-delivered group on a
        live replica would corrupt its write path.  Accepted messages
        still on the wire are delivered and applied first (the
        reliable-channel guarantee), unless a sever already dropped
        them.
        """
        self._stopped = True
        self._work.notify_all()
        self._space.notify_all()
        yield self._proc


class ShardReplication:
    """Fan-out shipper over one shard's replication links.

    Installed as the primary engine's ``wal_shipper``: ships every
    committed record to each link in replica order and reports the
    minimum applied sequence, which gates WAL-file retention on the
    primary (a WAL may only be unlinked once *every* replica has applied
    past its last record).
    """

    def __init__(self, links: List[ReplicationLink]):
        if not links:
            raise ValueError("ShardReplication requires at least one link")
        self.links = list(links)

    def ship(self, first_seq: int, last_seq: int, record: bytes
             ) -> Generator[Event, Any, None]:
        """Ship one committed record to every replica link."""
        for link in self.links:
            yield from link.ship(first_seq, last_seq, record)

    def applied_through(self) -> int:
        """Min primary sequence applied across replicas (WAL retention)."""
        return min(link.applied_through() for link in self.links)

    def sever(self) -> None:
        """Drop every link's undelivered records (primary death)."""
        for link in self.links:
            link.sever()

    def stop(self) -> Generator[Event, Any, None]:
        """Stop every link (in-flight applies finish first)."""
        for link in self.links:
            yield from link.stop()

    @property
    def max_lag(self) -> float:
        """Highest observed ship→apply lag across links, in seconds."""
        return max(link.max_lag for link in self.links)

    @property
    def records_applied(self) -> int:
        """Total records applied across links."""
        return sum(link.records_applied for link in self.links)

    @property
    def backlog(self) -> int:
        """Records queued behind the one being delivered, across links."""
        return sum(link.backlog for link in self.links)

    @property
    def outstanding(self) -> int:
        """Accepted-but-unapplied messages across links (failover drain)."""
        return sum(link.outstanding for link in self.links)
