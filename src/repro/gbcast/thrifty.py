"""Thrifty generic broadcast (Sections 3.2, 3.3; Aguilera et al. [1]).

The key component of the paper's new architecture.  It delivers
non-conflicting messages on a cheap *fast path* and invokes atomic
broadcast only when conflicting messages are actually broadcast — the
"thrifty" property the paper relies on in Sections 3.2.1 and 4.2.

Stage-based algorithm (see DESIGN.md §5 for the safety argument):

* To g-broadcast ``m``: reliably broadcast ``CHK(m)``.
* In stage ``k``, a process that r-delivers ``m`` ACKs it to all members
  iff ``m`` does not conflict with anything it already ACKed in stage
  ``k`` — so each process's acked set is pairwise non-conflicting.
* ``m`` is **fast-delivered** once ACKs from *all* current view members
  arrive (no atomic broadcast involved).
* A process that cannot ACK ``m`` (conflict), or that is nudged (ack
  timeout, or a suspicion edge of the FD ``monitor`` it is built with),
  **freezes**: it acks nothing more in stage ``k``.  Every stage has
  **one closer** — the first current member not in ``monitor.suspects``,
  which is also the round-0 consensus coordinator (consensus reads the
  same monitor) — and only the closer atomically broadcasts
  ``ENDSTAGE(k, S, T)``, an ordering record of **ids only**: ``S`` is
  its acked set, the **tail** ``T`` every other message it holds pending
  at that moment (the bodies are the CHK packets rbcast delivered to,
  and retains for, every member).  Any single member's acked set is a
  valid closure set (a fast delivery needs an ack from *every* member,
  so every member's set holds every message fast-delivered in ``k``),
  and what a frozen closer has not acked is fast-delivered nowhere in
  ``k``, so ``T`` is ordered behind ``S`` there and then: the op that
  trips a conflict rides the ENDSTAGE it causes, and one instance
  orders a backlog of any length.
  A frozen non-closer re-evaluates on every suspicion edge (the next
  unsuspected member takes over) and closes by itself
  ``FAST_PATH_TIMEOUT`` later; the ack timeout closes directly, because
  the process it fires at may be the only one that is stuck.  Both are
  one deadline timer (:meth:`_watch`), armed by the event that starts
  the wait; an idle process has none.  An ack is one channel message per
  member: packing a burst into a datagram is the channel's coalescing.
* On the first adelivered ``ENDSTAGE(k, S, T)`` from a current member,
  everyone delivers the undelivered messages of ``S``, then those of
  ``T``, each in MsgId order, bumps to stage ``k + 1`` and re-processes
  pending messages; a void or losing ENDSTAGE's tail stays pending.  A
  member that lacks a body the ENDSTAGE names is held *below
  a-delivery* by atomic broadcast (``on_adeliver(..., needs=)``): view
  installs, the excluded-sender rule and the state-transfer cut are
  defined by the a-delivery position.

Invariants enforced (and tested property-style in
``tests/properties/test_gbcast_properties.py``):

* conflicting delivered messages are delivered in the same relative
  order at every process;
* non-conflicting messages may be delivered in different orders (this is
  the point — no ordering cost);
* in conflict-free, suspicion-free runs, **no** atomic broadcast is ever
  invoked;
* per-sender FIFO (footnote 9 of the paper) is *emergent*: the reliable
  channels are FIFO, relays preserve per-origin order (per *route* over
  an overlay, where rbcast sends by size), processes ack in
  rdeliver order (a rejoiner acks the pending set its snapshot hands
  over first, in MsgId order, inside the install: state transfer puts
  the view in place before any section), closure sets *and tails* are
  delivered in MsgId (= send) order, a failed ack freezes the stage
  (nothing of a sender is in ``S`` behind a message of its in ``T``),
  and fast-path completion is a max over per-link FIFO ack arrivals —
  so a later message from a sender can never overtake an earlier one.
  The passive replicas' primary pipeline
  (:class:`repro.replication.replica.PrimaryReplica`) provides the same
  guarantee by construction, independent of transport properties.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Callable, Iterator

from repro.abcast.consensus_based import ConsensusAtomicBroadcast
from repro.broadcast.rbcast import ReliableBroadcast
from repro.fd.heartbeat import Monitor, watcher
from repro.gbcast.conflict import AckedClassIndex, ConflictRelation
from repro.metrics.counters import Cell
from repro.broadcast.delivered import DeliveredIds
from repro.net.message import AppMessage, MsgId
from repro.net.reliable import ReliableChannel
from repro.sim.process import Component, Process
from repro.sim.scheduler import DUE_SLACK, Timer

CHK_TAG = "gb.chk"
ACK_PORT = "gb.ack"
ENDSTAGE_CLASS = "_gb.endstage"

#: How long (ms) an open ack or a deferred close waits before this
#: process closes the stage itself.  One value in every measured run, so
#: a constant rather than configuration.
FAST_PATH_TIMEOUT = 250.0

GdeliverFn = Callable[[AppMessage], None]
GroupProvider = Callable[[], list[str]]

#: The ways a message is g-delivered, as :class:`DeliveryLog` stores them.
PATHS = ("fast", "closure")
_PATH_CODES = {path: code for code, path in enumerate(PATHS)}


class DeliveryLog(Sequence):
    """What a member g-delivered, in order, read as ``(message, path)``
    pairs: one list of messages and one byte per delivery for its path,
    not a tuple per delivery."""

    __slots__ = ("messages", "_paths")

    def __init__(self) -> None:
        self.messages: list[AppMessage] = []
        self._paths = bytearray()

    def append(self, message: AppMessage, path: str) -> None:
        self.messages.append(message)
        self._paths.append(_PATH_CODES[path])

    def __len__(self) -> int:
        return len(self.messages)

    def __getitem__(self, index: int) -> tuple[AppMessage, str]:
        return self.messages[index], PATHS[self._paths[index]]

    def __iter__(self) -> Iterator[tuple[AppMessage, str]]:
        return zip(self.messages, map(PATHS.__getitem__, self._paths))

    def __repr__(self) -> str:
        return f"DeliveryLog({list(self)!r})"


class ThriftyGenericBroadcast(Component):
    """Generic broadcast over rbcast (fast path) + abcast (conflicts)."""

    def __init__(
        self,
        process: Process,
        channel: ReliableChannel,
        rbcast: ReliableBroadcast,
        abcast: ConsensusAtomicBroadcast,
        conflict: ConflictRelation,
        group_provider: GroupProvider,
        monitor: Monitor,
    ) -> None:
        super().__init__(process, "gbcast")
        self.channel = channel
        self.rbcast = rbcast
        self.abcast = abcast
        self.conflict = conflict
        self.group_provider = group_provider
        #: An instance attribute, so an ablation can vary it per stack.
        self.fast_path_timeout = FAST_PATH_TIMEOUT
        self._stage = 0
        self._frozen = False
        #: Since when this process is frozen *waiting for somebody
        #: else's* ENDSTAGE; None once its own is on the way.
        self._deferred_at: float | None = None
        self._acked: dict[MsgId, AppMessage] = {}
        #: Per-class view of ``_acked``: makes the ack conflict decision
        #: O(#conflicting classes) instead of a scan over every acked
        #: message.  Kept in lockstep with ``_acked`` (messages stay in
        #: both until the stage closes).
        self._ack_index = AckedClassIndex(conflict)
        #: When each undelivered message of the stage was acked, oldest first.
        self._ack_times: dict[MsgId, float] = {}
        self._timeout: Timer | None = None  # see :meth:`_watch`
        self._acks_received: dict[MsgId, set[str]] = {}
        #: Acks ``(src, stage, mid)`` of members already in a later stage.
        self._early_acks: list[tuple[str, int, MsgId]] = []
        self._pending: dict[MsgId, AppMessage] = {}
        #: Disjoint from ``_pending`` (a message leaves it as it is
        #: delivered), so an id is looked up there first, in the cheaper dict.
        self._delivered = DeliveredIds()
        self._callbacks: list[GdeliverFn] = []
        #: The stack's small-timeout monitor: a fast path stalled by a
        #: suspected member closes on the suspicion edge instead of
        #: waiting for the ack timeout (Section 4.3).
        self.monitor = monitor
        monitor.subscribe(self.nudge)
        self.delivered_log = DeliveryLog()
        # Per-op bookkeeping, resolved once: counter cells, and per
        # conflict class its ``gbcast.broadcasts.<class>`` cell and
        # ``gbcast.<class>`` latency tag, per path its counter cell.
        metrics = self.world.metrics
        self._latency = metrics.latency
        counters = self._counters = metrics.counters
        self._classes: dict[str, tuple[Cell, str]] = {}
        self._paths: dict[str, Cell] = {}
        self._count_broadcasts = counters.cell("gbcast.broadcasts")
        self._count_delivered = counters.cell("gbcast.delivered")
        self._count_conflicts = counters.cell("gbcast.conflicts_detected")
        self._count_acks_early = counters.cell("gbcast.acks_early")
        self._count_closes_deferred = counters.cell("gbcast.closes_deferred")
        self._count_endstages = counters.cell("gbcast.endstages")
        self._count_tail_ordered = counters.cell("gbcast.tail_ordered")
        self.register_port(ACK_PORT, self._on_ack)
        rbcast.register(CHK_TAG, self._on_chk, layer="gbcast")
        abcast.on_adeliver(self._on_adeliver, needs=self._bodies_needed)

    # ------------------------------------------------------------------
    # Client interface (Fig. 9: rbcast/abcast in, gdeliver out)
    # ------------------------------------------------------------------
    def on_gdeliver(self, callback: GdeliverFn) -> None:
        self._callbacks.append(callback)

    def gbcast(self, message: AppMessage) -> None:
        """Generic-broadcast ``message`` (its class drives ordering)."""
        class_count, tag = self._class_entry(message.msg_class)
        self._count_broadcasts.n += 1
        class_count.n += 1
        now = self.now
        self._latency.begin(tag, message.id, now)
        self.spans.wrap(
            self.pid, "gbcast", "gbcast", "send", now, message.id,
            self.rbcast.rbcast, CHK_TAG, message,
        )

    def _class_entry(self, msg_class: str) -> tuple[Cell, str]:
        known = self._classes.get(msg_class)
        if known is None:
            known = self._classes[msg_class] = (
                self._counters.cell(f"gbcast.broadcasts.{msg_class}"),
                f"gbcast.{msg_class}",
            )
        return known

    def gbcast_payload(self, payload, msg_class: str) -> AppMessage:
        """Convenience: wrap ``payload`` in a fresh message and g-broadcast."""
        message = AppMessage(self.process.msg_ids.next(), self.pid, payload, msg_class)
        self.gbcast(message)
        return message

    @property
    def stage(self) -> int:
        return self._stage

    def undelivered_count(self) -> int:
        return len(self._pending)

    # ------------------------------------------------------------------
    # Fast path
    # ------------------------------------------------------------------
    def _on_chk(self, _origin: str, message: AppMessage, _mid: MsgId) -> None:
        if message.id in self._pending or message.id in self._delivered:
            return
        self._pending[message.id] = message
        self.abcast.body_arrived(message.id)  # an ENDSTAGE may be waiting for it
        if message.id in self._pending:  # ... and has not just delivered it
            self._try_ack(message)
            self._close_if_suspects_block()

    def _close_if_suspects_block(self) -> None:
        """Close the stage once a suspected member blocks the fast path."""
        if self._frozen or not self._pending:
            return
        suspects = self.monitor.suspects
        if suspects and not suspects.isdisjoint(self.group_provider()):
            self._close_stage("suspect")

    def _try_ack(self, message: AppMessage) -> None:
        if self._frozen or message.id in self._acked:
            return
        members = self.group_provider()
        if self.pid not in members:
            return
        if self._ack_index.clashes(message.msg_class):
            self.trace("conflict", mid=str(message.id), cls=message.msg_class)
            self._count_conflicts.n += 1
            self._close_stage("conflict")
            return
        self._acked[message.id] = message
        self._ack_index.add(message.msg_class)
        self._ack_times[message.id] = self.now
        # One ack per message: a burst to the same member (stage-closure
        # re-acking) is packed into one datagram by the channel.
        self.channel.send_to_all(members, ACK_PORT, [(self._stage, message.id)])
        self._watch()

    def _on_ack(self, src: str, acks: list[tuple[int, MsgId]]) -> None:
        for stage, mid in acks:
            if stage > self._stage:
                self._early_acks.append((src, stage, mid))
                self._count_acks_early.n += 1
            elif stage == self._stage and (mid in self._pending or mid not in self._delivered):
                self._acks_received.setdefault(mid, set()).add(src)
                self._check_fast(mid)

    def _check_fast(self, mid: MsgId) -> None:
        message = self._pending.get(mid)
        if message is None:
            return
        members = self.group_provider()
        acks = self._acks_received.get(mid, ())
        if len(acks) >= len(members) and self.pid in members and acks.issuperset(members):
            self._deliver(message, "fast")

    # ------------------------------------------------------------------
    # Stage closure (the only place atomic broadcast is invoked)
    # ------------------------------------------------------------------
    def nudge(self, _suspect: str | None = None) -> None:
        """Unblock request: a suspicion edge of the monitor, or a caller.

        Also re-evaluates a deferred close: the suspect may be the
        closer this process was waiting for.
        """
        if self._pending:
            self._close_stage("nudge")

    def _watch(self, fired: bool = False) -> None:
        """Keep the one timeout timer on what this process waits for — the
        closer it deferred to while frozen (nothing once its own ENDSTAGE
        is on its way), else the oldest open ack.  Called wherever a wait
        starts or ends: a wait that finds no timer arms one for its own
        start + ``fast_path_timeout`` (a ``timeout`` close chains to the
        event it timed out on), nothing left to wait for cancels it, a
        timer outlived by later waits fires early and re-arms."""
        if fired:
            self._timeout = None
        since = self._deferred_at if self._frozen else next(iter(self._ack_times.values()), None)
        if since is None:
            if self._timeout is not None:
                self._timeout.cancel()
                self._timeout = None
        elif self._timeout is None:
            due_in = since + self.fast_path_timeout - self.now
            if due_in > DUE_SLACK:
                self._timeout = self.schedule(due_in, self._watch, True)
            else:
                self._close_stage("timeout")

    def _close_stage(self, reason: str) -> None:
        if self._frozen and self._deferred_at is None:
            return  # this process's ENDSTAGE is already on its way
        members = self.group_provider()
        self._frozen = True
        if self.pid not in members:
            self._deferred_at = None
            return  # an ENDSTAGE from outside the view is void: stay silent
        if reason != "timeout" and watcher(members, self.monitor.suspects) != self.pid:
            if self._deferred_at is None:
                self._deferred_at = self.now
                self.trace("close_deferred", stage=self._stage, reason=reason)
                self._count_closes_deferred.n += 1
                self._watch()
            return
        self._deferred_at = None
        self._abcast_endstage(sorted(self._acked), reason)

    def _abcast_endstage(self, closure_ids: list[MsgId], reason: str) -> None:
        """Order ``(stage, S, T)``, ids only: the closure set and, behind
        it, the tail — everything else this process holds pending."""
        closure = frozenset(closure_ids)
        tail = tuple(sorted(mid for mid in self._pending if mid not in closure))
        self.trace(
            "endstage", stage=self._stage, reason=reason, size=len(closure_ids), tail=len(tail)
        )
        self._count_endstages.n += 1
        self._count_tail_ordered.n += len(tail)
        payload = (self._stage, tuple(closure_ids), tail)
        endstage = AppMessage(self.process.msg_ids.next(), self.pid, payload, ENDSTAGE_CLASS)
        self.abcast.abcast(endstage)

    def _bodies_needed(self, message: AppMessage) -> list[MsgId]:
        """abcast's readiness predicate: the ids an ENDSTAGE names whose
        bodies (CHK packets) have not been r-delivered here yet.  Nothing
        for a void one (see :meth:`_on_adeliver`): it delivers nothing."""
        if message.msg_class != ENDSTAGE_CLASS:
            return []
        stage, closure, tail = message.payload
        if stage != self._stage or message.sender not in self.group_provider():
            return []
        # An id acked in this stage is held (pending or delivered): the
        # fast-delivered bulk of a closure set never reaches the store.
        return [
            mid
            for mid in closure + tail
            if mid not in self._pending and mid not in self._acked and mid not in self._delivered
        ]

    def _on_adeliver(self, message: AppMessage) -> None:
        if message.msg_class != ENDSTAGE_CLASS:
            return
        stage, closure, tail = message.payload
        if stage != self._stage:
            return  # a closure for this stage was already processed
        if message.sender not in self.group_provider():
            # Section 3 safety rule: stage closures from processes that
            # were excluded before this point in the total order are void
            # (and their tails stay pending).
            self.trace("endstage_ignored", sender=message.sender)
            return
        for mid in closure + tail:  # each in MsgId order, closure set first
            # Not pending is delivered: abcast held this ENDSTAGE below
            # a-delivery until every body it names was one or the other.
            message = self._pending.get(mid)
            if message is not None:
                self._deliver(message, "closure")
        self._stage += 1
        self._frozen = False
        self._deferred_at = None
        self._acked.clear()
        self._ack_index.clear()
        self._ack_times.clear()
        self._acks_received.clear()
        # Count the acks that arrived a stage early, drop the older ones.
        early, self._early_acks = self._early_acks, []
        for src, ack_stage, mid in early:
            self._on_ack(src, [(ack_stage, mid)])
        self._ack_pending()
        self._watch()

    def _ack_pending(self) -> None:
        """(Re-)process everything pending, in MsgId (= send) order: on
        entering a stage, and once a state snapshot has handed over the
        sponsor's pending set."""
        for mid in sorted(self._pending):
            self._try_ack(self._pending[mid])
        self._close_if_suspects_block()

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def _deliver(self, message: AppMessage, path: str) -> None:
        if self._pending.pop(message.id, None) is None and message.id in self._delivered:
            return
        self._delivered.add(message.id)
        # NOTE: the message stays in self._acked until the stage closes.
        # Removing it here would let a conflicting message be acked in
        # the same stage (its blocker gone) and ride a closure set ahead
        # of processes that fast-delivered this one — breaking the
        # conflict order.  The acked set IS the stage's history.
        self._ack_times.pop(message.id, None)
        self._acks_received.pop(message.id, None)
        self._watch()
        path_count = self._paths.get(path)
        if path_count is None:
            path_count = self._paths[path] = self._counters.cell(f"gbcast.delivered.{path}")
        self._count_delivered.n += 1
        path_count.n += 1
        self._latency.end(self._class_entry(message.msg_class)[1], message.id, self.now)
        self.delivered_log.append(message, path)
        if self.world.trace.enabled:
            self.trace("gdeliver", mid=str(message.id), path=path, cls=message.msg_class)
        spans = self.spans
        if spans.enabled:
            spans.point(
                self.pid, "gbcast", "gdeliver", "deliver", self.now, mid=message.id
            ).note(path=path)
        for callback in self._callbacks:
            callback(message)

    # ------------------------------------------------------------------
    # State transfer support
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        return {
            "stage": self._stage,
            "delivered": set(self._delivered),
            "pending": dict(self._pending),
        }

    def install_snapshot(self, snapshot: dict) -> None:
        """Enter the snapshot's stage and join its knowledge with ours."""
        self._stage = snapshot["stage"]
        self._delivered |= snapshot["delivered"]  # add-only: nothing is forgotten
        # Ours (rbcast may have redelivered old, not-yet-stable packets
        # while we waited for the transfer) plus the sponsor's, minus
        # whatever either side knows delivered.
        self._pending = {
            mid: msg
            for mid, msg in {**snapshot["pending"], **self._pending}.items()
            if mid not in self._delivered
        }
        # The inherited messages will not be r-delivered here again, so
        # nothing else would ever ack them: the others' fast path would
        # wait out its timeout for this member's ack, and a later message
        # of the same sender, acked on arrival, would overtake them — by
        # fast path or at the head of this member's closure set.  (The
        # group is known: membership puts the view in place first.)
        self._ack_pending()
