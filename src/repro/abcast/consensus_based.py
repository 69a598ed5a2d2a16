"""Atomic broadcast as a sequence of consensus instances [10].

This is the basic component of the paper's new architecture
(Section 3.1.1): it requires only a ◇S failure detector, tolerates
f < n/2 crashes *without* any group membership below it, and never
blocks on a wrong suspicion.

Algorithm (Chandra–Toueg transformation, id-only variant):

* ``abcast(m)`` reliably broadcasts ``m`` — this is the only time the
  payload body crosses the wire (**dissemination**).
* Each process collects r-delivered but not yet a-delivered messages in
  ``pending``; while ``pending`` is non-empty it runs consensus instances
  proposing *id vectors* — ``(proposer, (MsgId, ...))`` — never bodies
  (**ordering**).  ESTIMATE/PROPOSE/ACK/DECIDE therefore cost O(ids),
  independent of payload size (the Ring Paxos separation: disseminate
  once, order ids).
* The decision of an instance is an id vector; every process a-delivers
  the referenced messages in a deterministic order (sorted by id), *once
  every body is locally available* from its rbcast-fed pending set.

Total order holds because every process a-delivers the same decided id
vectors in the same instance order, and ids resolve to immutable bodies;
uniform agreement is inherited from consensus.

**Decide-before-dissemination**: a process can learn a decision before
rbcast hands it every referenced body — routinely over an overlay, where
rbcast sends what orders direct and bodies hop by hop, so ids run a hop
ahead; else a slow link, a replayed DECIDE at a recovered incarnation, a
joiner's snapshot fence.  Delivery then blocks on the missing ids —
only the head instance can ever be blocked — and, one
``REPAIR_INTERVAL`` later and every interval after (a body in flight is
not a body lost, and a NACK is answered with all the peer retains),
abcast asks rbcast for a repair (``rbcast.request_repair``): the
decision's *proposer* first (it held every body
when it proposed), then the other members in turn.  How the packets are
found and re-sent is rbcast's business; the bodies come back through the
ordinary r-deliver handler.  Some member always has them: rbcast keeps a
packet until every current member has r-delivered it, and a joiner whose
snapshot fences a packet it never saw received the body in the abcast
snapshot cut in the same event.  The same path serves bodies that a
*message* names: a client registers a readiness predicate next to its
callback (``on_adeliver(callback, needs=)`` — generic broadcast's
ENDSTAGE names ids whose bodies travel as its own rbcast packets), the
predicate is asked at the message's turn in its batch — not per batch:
what came before may have voided it — and a message that lacks a body
blocks the head exactly like a missing abcast body until the client
reports it (``body_arrived``).  The wait sits *below* a-delivery because
everything above is defined by the a-delivery position.

**Joining on PROPOSE**: a member starts an instance when it has ids to
propose, and consensus buffers what arrives for an instance before
that.  A member of the instance's epoch that a coordinator's PROPOSE
finds without one (``consensus.on_solicit``) joins with an *empty* id
vector, so the proposal is ACKed when it arrives.  Left in the buffer it
would wait for a body to give the member something to propose — a hop
per member over the ring overlay, against one direct leg for
the PROPOSE — *unless* a stale proposal of the member's own happens to
be in flight at that index (an id two proposers sliced into different
instances leaves one behind), which answers at once: two regimes 25 %
apart in latency on a 4 KiB ring, and which one a run is in is an
accident of its sample path that lasts.  An empty vector that wins a
later round delivers nothing and costs one instance.  This is not "ACK
only what you hold": an id can be decided while its body is still on
the way (the repair above; ROADMAP item 1, family (iv), for a body
whose only holder crashes).

**State transfer**: ``snapshot`` / ``install_snapshot`` are one section
of the membership snapshot.  The install takes the position, *joins*
delivered and pending with ours (it never takes a delivery back) and,
being installed last — the view in place, every client holding its
state — is also the resumption: what it retained beyond the position is
applied and the backlog proposed from inside it.

Pipelining (Ring-Paxos-style windowing):  up to ``window`` consensus
instances may be in flight concurrently, so a burst of broadcasts does
not serialise behind one instance's four communication phases.  Each
in-flight instance proposes a disjoint slice of the pending set (at most
``max_batch`` ids per slice).  Decisions may arrive out of order;
delivery stays strictly in instance order.

Group dynamism under pipelining — the **epoch** rule:  the participant
set of an instance is read from ``group_provider()`` when the instance
starts locally.  Serialised naively, W > 1 would let a process propose
instance k+1 with a stale participant set while instance k decides a
membership change.  Instances are therefore keyed ``(epoch, index)``:

* the epoch advances exactly when a message of a *serial class*
  (membership ctl ops) is delivered, and that message ends its batch —
  the rest stays pending for the new epoch, so a batch is never half
  applied across a view change — a deterministic function of the
  delivered prefix, hence identical at every process;
* within an epoch the membership cannot change, so every proposer of
  ``(e, i)`` reads the same participant set;
* delivering a serial-class batch voids all undelivered instances of the
  old epoch (their messages are still pending and are re-proposed under
  the new epoch), and the consensus instances it started are abandoned;
* while a serial-class message is pending locally the window falls back
  to 1, so membership changes only ever ride the head instance — the
  "participant set read at instance start" invariant of the paper is
  preserved verbatim for them.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.broadcast.rbcast import ReliableBroadcast
from repro.consensus.chandra_toueg import ChandraTouegConsensus
from repro.net.message import AppMessage, MsgId
from repro.sim.process import Component, Process
from repro.sim.scheduler import Timer

MSG_TAG = "abc.msg"
INSTANCE_PREFIX = "abc"
#: While the head instance is blocked on a decided-but-missing body,
#: ask rbcast for a repair this often (ms), one member per attempt.
REPAIR_INTERVAL = 50.0

#: Message classes that may change the group (membership ctl ops ride
#: this class — see ``repro.membership.abcast_membership.CTL_CLASS``).
#: Kept here as a plain constant so abcast never imports membership
#: (Fig. 9's dependency arrows point the other way).
SERIAL_CLASSES = frozenset({"_gm.ctl"})

AdeliverFn = Callable[[AppMessage], None]
#: Readiness predicate of an a-deliver client: the ids of the bodies it
#: needs in order to process the message and does not hold (empty: ready).
NeedsFn = Callable[[AppMessage], Iterable[MsgId]]
GroupProvider = Callable[[], list[str]]


class ConsensusAtomicBroadcast(Component):
    """Consensus-based atomic broadcast (new architecture, id-only)."""

    def __init__(
        self,
        process: Process,
        rbcast: ReliableBroadcast,
        consensus: ChandraTouegConsensus,
        group_provider: GroupProvider,
        window: int = 1,
        max_batch: int | None = None,
    ) -> None:
        super().__init__(process, "abcast")
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.rbcast = rbcast
        self.consensus = consensus
        self.group_provider = group_provider
        self.window = window
        self.max_batch = max_batch
        self._pending: dict[MsgId, AppMessage] = {}
        self._delivered: set[MsgId] = set()
        #: Decided, not yet applied id vectors keyed by (epoch, index) —
        #: may include future-epoch decisions from faster processes.
        #: Values are ``(proposer_pid, (MsgId, ...))``.
        self._decided_batches: dict[tuple[int, int], tuple[str, tuple[MsgId, ...]]] = {}
        self._epoch = 0
        self._next_instance = 0
        #: Next index to propose within the current epoch (>= _next_instance).
        self._next_proposal = 0
        #: Messages currently riding an in-flight proposal of ours, per
        #: index — so concurrent instances propose disjoint slices.
        self._proposal_ids: dict[int, list[MsgId]] = {}
        self._assigned: set[MsgId] = set()
        #: Decide-before-dissemination: ``(key, proposer, missing ids,
        #: namer)`` of the head instance while it waits for bodies
        #: (delivery is in strict instance order, so only the head can
        #: ever be blocked; ``namer``: the batch message that names them,
        #: None for the decision's own abcast bodies), the timer of its
        #: repair requests and the rotation position.
        self._blocked: (
            tuple[tuple[int, int], str, frozenset[MsgId], MsgId | None] | None
        ) = None
        self._repair_timer: Timer | None = None
        self._repair_attempt = 0
        self._callbacks: list[AdeliverFn] = []
        self._needs: list[NeedsFn] = []
        self.delivered_log: list[AppMessage] = []
        rbcast.register(MSG_TAG, self._on_rdeliver, layer="abcast")
        consensus.on_decide(self._on_decide)
        consensus.on_solicit(self._on_solicit)

    # ------------------------------------------------------------------
    # Client interface (Fig. 9: abcast / adeliver)
    # ------------------------------------------------------------------
    def on_adeliver(self, callback: AdeliverFn, needs: NeedsFn | None = None) -> None:
        """Register an a-deliver client; ``needs`` makes a message wait
        *below a-delivery* for the bodies it names (module docstring)."""
        self._callbacks.append(callback)
        if needs is not None:
            self._needs.append(needs)

    def abcast(self, message: AppMessage) -> None:
        """Atomically broadcast ``message`` to the current group.

        Opens the message's causal root span: a fresh abcast (no ambient
        context) roots a trace keyed by the incarnation-stamped message
        id, and every hop until each process's ``adeliver`` chains to it.
        """
        self.world.metrics.counters.inc("abcast.broadcasts")
        self.world.metrics.latency.begin("abcast", message.id, self.now)
        self.spans.wrap(
            self.pid, "abcast", "abcast", "send", self.now, message.id,
            self.rbcast.rbcast, MSG_TAG, message,
        )

    @property
    def next_instance(self) -> int:
        return self._next_instance

    @property
    def epoch(self) -> int:
        return self._epoch

    def in_flight(self) -> int:
        """Number of instances currently proposed but not yet applied."""
        return len(self._proposal_ids)

    def delivered_ids(self) -> set[MsgId]:
        return set(self._delivered)

    def waiting_on(self) -> dict[MsgId, MsgId | None]:
        """Ids decided but not yet locally available (repair in flight),
        each with the batch message that names it (None: an abcast body
        the decision itself names)."""
        return dict.fromkeys(self._blocked[2], self._blocked[3]) if self._blocked else {}

    # ------------------------------------------------------------------
    # State transfer support (for joiners)
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """Position *and* pending bodies.

        The bodies matter under id-only ordering: a joiner's rbcast
        snapshot fences out late copies of pre-snapshot packets, so any
        id decided beyond the snapshot position whose body the joiner
        never received must come from here (the donor held it in
        ``pending`` at the cut) or from an rbcast repair.
        """
        return {
            "epoch": self._epoch,
            "next_instance": self._next_instance,
            "delivered": set(self._delivered),
            "pending": dict(self._pending),
        }

    def install_snapshot(self, snapshot: dict[str, Any]) -> None:
        """Move to the snapshot's position, join its knowledge with ours
        and resume — the group is known (membership puts the view in
        place first) and everything above holds its state: what was
        decided beyond the position and retained during the transfer is
        applied here (a laggard first finds a body missing, and blocks
        on it, here) and the pending backlog is proposed."""
        # Any instance optimistically started before the snapshot position
        # is obsolete; abandon it so this process stops participating.
        self._abandon_proposals(from_index=0)
        self._unblock()
        self._epoch = snapshot["epoch"]
        self._next_instance = snapshot["next_instance"]
        self._next_proposal = self._next_instance
        self._delivered |= snapshot["delivered"]  # add-only: nothing is forgotten
        self._pending = {
            mid: msg
            for mid, msg in {**snapshot["pending"], **self._pending}.items()
            if mid not in self._delivered
        }
        self._decided_batches = {
            (epoch, idx): decision
            for (epoch, idx), decision in self._decided_batches.items()
            if epoch > self._epoch
            or (epoch == self._epoch and idx >= self._next_instance)
        }
        # Buffered consensus traffic for instances behind the snapshot
        # position will never be proposed here; reclaim it.
        self.consensus.prune_pre_propose(
            lambda key: isinstance(key, tuple)
            and key[0] == INSTANCE_PREFIX
            and (
                key[1] < self._epoch
                or (key[1] == self._epoch and key[2] < self._next_instance)
            )
        )
        self._apply_ready_batches()
        self._maybe_start_instances()

    # ------------------------------------------------------------------
    # Protocol
    # ------------------------------------------------------------------
    def _on_rdeliver(self, _origin: str, message: AppMessage, _rb_mid: MsgId) -> None:
        if message.id in self._delivered or message.id in self._pending:
            return
        self._pending[message.id] = message
        self.body_arrived(message.id)
        self._maybe_start_instances()

    def body_arrived(self, mid: MsgId) -> None:
        """A body is now held — here, or by the client whose ``needs``
        named it: resume a head instance blocked on it (re-sent on our
        request or late the ordinary way — rbcast does not say)."""
        if self._blocked is not None and mid in self._blocked[2]:
            self.world.metrics.counters.inc("abcast.repaired")
            self._apply_ready_batches()
            self._maybe_start_instances()

    def _serial_pending(self) -> bool:
        return any(
            msg.msg_class in SERIAL_CLASSES for msg in self._pending.values()
        )

    def _maybe_start_instances(self) -> None:
        """Open instances until the window is full or pending is drained.

        Falls back to a window of 1 whenever a serial-class (membership
        ctl) message is pending: such messages must only ride the head
        instance, started after everything before it was applied.
        """
        while len(self._proposal_ids) < self.window:
            if self._proposal_ids and self._serial_pending():
                return  # W=1 fallback while a membership op is in flight
            batch_ids = [mid for mid in sorted(self._pending) if mid not in self._assigned]
            if not batch_ids:
                return
            if self.max_batch is not None:
                batch_ids = batch_ids[: self.max_batch]
            # Read the group fresh every iteration: under the consensus
            # fast path propose() can decide *synchronously* (singleton
            # majority), and applying that decision here may bump the
            # epoch — a cached group would then propose under a stale
            # participant set.
            group = self.group_provider()
            if self.pid not in group:
                return
            index = self._next_proposal
            self._next_proposal += 1
            self._proposal_ids[index] = batch_ids
            self._assigned.update(batch_ids)
            self.world.metrics.counters.inc("abcast.instances")
            if len(self._proposal_ids) > 1:
                self.world.metrics.counters.inc("abcast.instances_pipelined")
            # Id-only proposal: the bodies stay with rbcast.  The
            # proposer pid rides along so a process that decides before
            # dissemination knows whom to ask for a repair first.
            self.consensus.propose(
                (INSTANCE_PREFIX, self._epoch, index),
                (self.pid, tuple(batch_ids)),
                group,
            )

    def _on_solicit(self, key: Any) -> None:
        """A coordinator's PROPOSE found no instance here: join with an
        empty id vector, so that it is ACKed now and not when a body
        gives this process something to propose (module docstring).

        Only within the current epoch — its participant set is the one
        every proposer of the instance read — and never behind the
        delivery position.  The joined index sits in ``_proposal_ids``
        like a proposal of our own: it counts against the window, is
        retired when the instance is applied and abandoned with the
        rest on an epoch bump or a snapshot install.
        """
        if not (isinstance(key, tuple) and key[0] == INSTANCE_PREFIX):
            return
        epoch, index = key[1], key[2]
        if epoch != self._epoch or index < self._next_instance:
            return
        group = self.group_provider()
        if self.pid not in group:
            return
        self._proposal_ids[index] = []
        self._next_proposal = max(self._next_proposal, index + 1)
        self.world.metrics.counters.inc("abcast.instances_joined")
        self.consensus.propose(key, (self.pid, ()), group)

    def _on_decide(self, key: Any, value: Any) -> None:
        if not (isinstance(key, tuple) and key[0] == INSTANCE_PREFIX):
            return
        epoch, index = key[1], key[2]
        if epoch < self._epoch or (
            epoch == self._epoch and index < self._next_instance
        ):
            # A stale decision (old epoch, or an index already applied —
            # e.g. re-decided after a collect raced a slow peer): free
            # the consensus state, the batch is not applied.
            self.consensus.collect(key)
            return
        if (epoch, index) in self._decided_batches:
            return
        proposer, batch_ids = value
        self._decided_batches[(epoch, index)] = (proposer, tuple(batch_ids))
        self._apply_ready_batches()
        self._maybe_start_instances()

    def _apply_ready_batches(self) -> None:
        if self.pid not in self.group_provider():
            # Not (or not yet) a member: decided batches can still reach
            # us — a suspicion-edge NACK's answer happily replays old
            # DECIDE broadcasts at a recovered incarnation's fresh stack
            # — but applying them would deliver the very prefix the
            # state snapshot is about to install, from position zero.
            # Retain them (and do not ask for their bodies: the
            # snapshot covers everything up to its position);
            # ``install_snapshot`` drains whatever lies beyond.
            return
        while True:
            key = (self._epoch, self._next_instance)
            decision = self._decided_batches.get(key)
            if decision is None:
                return
            proposer, batch_ids = decision
            missing = [
                mid
                for mid in batch_ids
                if mid not in self._delivered and mid not in self._pending
            ]
            if missing:
                # Decided before dissemination: block delivery (instance
                # order is strict) and repair.
                self._block_on(key, proposer, missing, None)
                return
            serial = False
            for mid in sorted(batch_ids):
                # Delivered by an earlier instance (proposers may slice
                # an id differently) or by this one before it blocked.
                if mid in self._delivered:
                    continue
                message = self._pending[mid]
                # Asked at the message's turn, not per batch: what came
                # before it in the batch may have voided it.
                named = [m for needs in self._needs for m in needs(message)]
                if named:
                    self._block_on(key, proposer, named, mid)
                    return
                self._adeliver(message)
                if self.process.crashed:
                    return
                if message.msg_class in SERIAL_CLASSES:
                    # A membership op ends its batch: the rest stays
                    # pending for the new epoch, so no batch is ever
                    # half applied across a view change.
                    serial = True
                    break
            del self._decided_batches[key]
            self._unblock()
            # The batch is applied; the consensus instance can be
            # garbage-collected (a tombstone keeps late messages inert).
            self.consensus.collect((INSTANCE_PREFIX,) + key)
            self._retire_proposal(self._next_instance)
            self._next_instance += 1
            self._next_proposal = max(self._next_proposal, self._next_instance)
            if serial:
                self._bump_epoch()

    # ------------------------------------------------------------------
    # Decide-before-dissemination: the repair itself is rbcast's
    # ------------------------------------------------------------------
    def _block_on(
        self, key: tuple[int, int], proposer: str, missing: list[MsgId], namer: MsgId | None
    ) -> None:
        waiting = self._blocked is not None and self._blocked[3] == namer
        if not waiting:
            self._unblock()  # the head moved on to another message's bodies
        self._blocked = (key, proposer, frozenset(missing), namer)
        if waiting:
            return  # some of the bodies arrived: same wait, same timer
        self.world.metrics.counters.inc("abcast.decide_before_dissemination")
        self.trace(
            "blocked", key=str(key), missing=" ".join(map(str, sorted(missing))),
            named_by=str(namer) if namer else "decision",
        )
        self._repair_attempt = 0
        # Not at once: the body is usually a hop behind (module docstring).
        self._repair_timer = self.schedule(REPAIR_INTERVAL, self._request_repair)

    def _unblock(self) -> None:
        self._blocked = None
        if self._repair_timer is not None:
            self._repair_timer.cancel()
            self._repair_timer = None

    def _request_repair(self) -> None:
        """Ask one member to re-send what rbcast still lacks here.

        Deterministic rotation: the decision's proposer first (it held
        every body when it proposed), then the other members in turn —
        any of them retains the packets until they are stable, that is
        until we have them too.
        """
        proposer = self._blocked[1]
        members = self.group_provider()
        targets = sorted(m for m in members if m != self.pid and m != proposer)
        if proposer != self.pid and proposer in members:
            targets.insert(0, proposer)
        if targets:
            self.world.metrics.counters.inc("abcast.pulls_sent")
            self.rbcast.request_repair(targets[self._repair_attempt % len(targets)])
            self._repair_attempt += 1
        self._repair_timer = self.schedule(REPAIR_INTERVAL, self._request_repair)

    # ------------------------------------------------------------------
    def _retire_proposal(self, index: int) -> None:
        for mid in self._proposal_ids.pop(index, []):
            self._assigned.discard(mid)

    def _bump_epoch(self) -> None:
        """A membership op was applied: the group may have changed.

        Every undelivered instance of the old epoch was (or would be)
        proposed under the stale participant set; void them all.  Their
        messages are still in ``pending`` and are re-proposed under the
        new epoch, so nothing is lost — the decisions themselves are
        discarded identically at every process (the bump is a function
        of the delivered prefix alone, which is totally ordered).
        """
        voided = [k for k in self._decided_batches if k[0] == self._epoch]
        for key in voided:
            del self._decided_batches[key]
            self.consensus.collect((INSTANCE_PREFIX,) + key)
        self._abandon_proposals(from_index=self._next_instance)
        # Peers may have started old-epoch instances we never proposed;
        # their buffered consensus traffic is now void too.
        stale_epoch = self._epoch
        self.consensus.prune_pre_propose(
            lambda key: isinstance(key, tuple)
            and key[0] == INSTANCE_PREFIX
            and key[1] <= stale_epoch
        )
        if voided:
            self.world.metrics.counters.inc("abcast.instances_voided", len(voided))
        self._epoch += 1
        self._next_instance = 0
        self._next_proposal = 0
        self.world.metrics.counters.inc("abcast.epoch_bumps")
        self.trace("epoch_bump", epoch=self._epoch, voided=len(voided))

    def _abandon_proposals(self, from_index: int) -> None:
        for index in [i for i in self._proposal_ids if i >= from_index]:
            self.consensus.abandon((INSTANCE_PREFIX, self._epoch, index))
            self._retire_proposal(index)

    def _adeliver(self, message: AppMessage) -> None:
        mid = message.id
        del self._pending[mid]
        self._delivered.add(mid)
        self._assigned.discard(mid)
        self.world.metrics.counters.inc("abcast.delivered")
        self.world.metrics.latency.end("abcast", mid, self.now)
        self.delivered_log.append(message)
        if self.world.trace.enabled:
            self.trace("adeliver", mid=str(mid))
        spans = self.spans
        if spans.enabled:
            spans.point(self.pid, "abcast", "adeliver", "deliver", self.now, mid=mid)
        for callback in self._callbacks:
            callback(message)
