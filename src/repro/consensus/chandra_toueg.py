"""Chandra–Toueg ◇S consensus [10], instance-multiplexed.

This is the algorithm the paper's new architecture rests on
(Section 3.1.1): it tolerates f < n/2 crashes with an *unreliable*
failure detector — wrong suspicions never violate safety, they only cost
an extra round.  That property is exactly what lets the new architecture
run atomic broadcast *below* group membership and keep failure-detection
timeouts small (Section 4.3).

Algorithm (rotating coordinator, one instance):

  round r, coordinator c = participants[r mod n]
    phase 1  every participant sends (ESTIMATE, r, est, ts) to c
    phase 2  c waits for a majority of estimates, adopts the one with the
             highest ts, and sends (PROPOSE, r, v) to all
    phase 3  a participant that receives PROPOSE adopts v (ts := r),
             ACKs, and waits for the decision; a participant that
             suspects c NACKs and advances to round r+1
    phase 4  on a majority of ACKs, c reliably broadcasts (DECIDE, v);
             on any NACK, c tells everyone to advance (ABORT)

Safety: a decided value was ACKed by a majority in some round r; every
later coordinator reads a majority of estimates, which intersects that
majority, and the max-ts rule forces it to adopt the locked value.

Two practical refinements (both standard, neither affects safety):

* a coordinator keeps per-round state after moving on, so it answers
  late ESTIMATEs by re-sending its PROPOSE — laggards catch up;
* a participant that ACKed waits for the decision instead of charging
  through rounds; liveness is preserved because the coordinator sends
  ABORT when a round fails and the failure detector flags dead
  coordinators — on the monitor's suspicion edge (``peer_suspected``),
  and where an instance arrives at a round whose coordinator is
  suspected already: entering it, or adopting a replayed proposal.
  Nothing polls; consensus sets no timer.

A message for an instance the local client has not proposed to yet is
buffered and replayed by ``propose()`` (the participant set comes with
that call).  A buffered **PROPOSE** is also announced to the client
(``on_solicit``): a coordinator holds a value and waits for this
process's ACK, and a client that knows the instance's participants may
join with a value of its own choosing instead of letting the proposal
wait for one.  An ESTIMATE is not announced — it reaches a coordinator
that has nothing to propose yet, and that is for its client to end.

A third refinement is the **round-0 fast path**, which every instance
runs (the new-architecture stack and Phoenix's view consensus alike).
The round-0 coordinator proposes its own value immediately instead of
first reading a majority of estimates.  The estimate read exists only to
discover a previously *locked* value — one some majority may already
have ACKed in an earlier round — and no round precedes round 0, so every
estimate it could read is an initial one (``ts = 0``) and the read
cannot change what it proposes.  Three supporting wins ride the same
argument: the coordinator's self-addressed round-0 ESTIMATE is suppressed
(it already holds its value); its own adoption counts as an implicit ACK
— valid because the adoption records ``est``/``ts`` exactly as an
explicit ACKer would, so the majority behind a decision still intersects
every later coordinator's estimate read; and on a majority of ACKs the
coordinator decides locally at once while the DECIDE rbcast propagates
to everyone else.  Every later round is the classic three-phase round
above.

Adoption locks a value with ``ts = round + 1``, so a round-0 lock
(``ts = 1``) is distinguishable from a never-adopted initial estimate
(``ts = 0``): with ``ts = round`` a round-0 adoption would be invisible
to the max-ts rule, and the ``(ts, src)`` tie-break could steer a later
coordinator away from a value round 0 already decided.

The algorithm is value-agnostic: it agrees on whatever hashable value a
proposer hands it and never inspects the contents.  The atomic
broadcast layer exploits this by proposing *id vectors* — ``(proposer,
(MsgId, ...))`` — instead of message bodies, so ordering traffic is
payload-size-independent; bodies travel exactly once, over reliable
broadcast (see ``docs/architecture.md``, "Dissemination vs. ordering").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Hashable

from repro.broadcast.rbcast import ReliableBroadcast
from repro.fd.heartbeat import Monitor
from repro.net.reliable import ReliableChannel
from repro.sim.process import Component, Process

PORT = "cons"
DECIDE_TAG = "cons.decide"

InstanceKey = Hashable
DecisionCallback = Callable[[InstanceKey, Any], None]

#: Tombstone left in the decision map by :meth:`collect`.
_COLLECTED = object()

# Participant phases within a round.
WAIT_PROPOSE = "wait_propose"
WAIT_DECIDE = "wait_decide"


@dataclass
class _CoordRound:
    """Coordinator-side state for one (instance, round)."""

    estimates: dict[str, tuple[Any, int]] = field(default_factory=dict)
    proposed: Any = None
    has_proposed: bool = False
    acks: set[str] = field(default_factory=set)
    nacked: bool = False
    closed: bool = False


@dataclass
class _Instance:
    participants: list[str]
    est: Any = None
    ts: int = -1
    has_estimate: bool = False
    round: int = 0
    phase: str = WAIT_PROPOSE
    decided: bool = False
    decision: Any = None
    started: bool = False
    buffered_proposes: dict[int, Any] = field(default_factory=dict)
    #: Rounds whose coordinator declared them dead (ABORT) before we
    #: reached them; entering one skips straight past it.
    aborted_rounds: set[int] = field(default_factory=set)
    coord_rounds: dict[int, _CoordRound] = field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.participants)

    @property
    def majority(self) -> int:
        return self.n // 2 + 1

    def coordinator(self, rnd: int) -> str:
        return self.participants[rnd % self.n]


class ChandraTouegConsensus(Component):
    """Multiplexes any number of CT consensus instances."""

    def __init__(
        self,
        process: Process,
        channel: ReliableChannel,
        rbcast: ReliableBroadcast,
        monitor: Monitor,
    ) -> None:
        super().__init__(process, "consensus")
        self.channel = channel
        self.rbcast = rbcast
        self._instances: dict[InstanceKey, _Instance] = {}
        self._pre_propose_buffer: dict[InstanceKey, list[tuple[str, tuple]]] = {}
        self._decisions: dict[InstanceKey, Any] = {}
        self._callbacks: list[DecisionCallback] = []
        self._solicit_callbacks: list[Callable[[InstanceKey], None]] = []
        #: Handed in by the stack and always on over the group, so a dead
        #: coordinator is known *before* an instance starts.
        self.monitor = monitor
        self.monitor.subscribe(self.peer_suspected)
        counters = self.world.metrics.counters
        self._count_proposals = counters.cell("consensus.proposals")
        self._count_collected = counters.cell("consensus.collected")
        self._count_rounds = counters.cell("consensus.rounds")
        self._count_messages = counters.cell("consensus.messages")
        self._count_fast_path_proposals = counters.cell("consensus.fast_path_proposals")
        self._count_decisions_broadcast = counters.cell("consensus.decisions_broadcast")
        self._count_local_decides = counters.cell("consensus.fast_path_local_decides")
        self._count_decided = counters.cell("consensus.decided")
        self.register_port(PORT, self._on_message)
        rbcast.register(DECIDE_TAG, self._on_decide_broadcast, layer="consensus")

    # ------------------------------------------------------------------
    # Client interface (Fig. 9: propose / decide)
    # ------------------------------------------------------------------
    def on_decide(self, callback: DecisionCallback) -> None:
        self._callbacks.append(callback)

    def on_solicit(self, callback: Callable[[InstanceKey], None]) -> None:
        """``callback(instance)`` whenever a PROPOSE is buffered for an
        instance nobody proposed to here; a ``propose()`` from inside
        the callback replays it at once."""
        self._solicit_callbacks.append(callback)

    def propose(self, instance: InstanceKey, value: Any, participants: list[str]) -> None:
        """Start (or join) consensus ``instance`` with initial ``value``."""
        if instance in self._decisions:
            return
        inst = self._get_instance(instance, participants)
        if inst.started or self.pid not in inst.participants:
            return
        inst.started = True
        inst.est = value
        inst.ts = 0
        inst.has_estimate = True
        self._count_proposals.n += 1
        self.trace("propose", instance=instance)
        spans = self.spans
        if spans.enabled:
            spans.point(self.pid, "consensus", "propose", "proc", self.now).note(
                instance=str(instance)
            )
        self._enter_round(instance, inst, 0)
        # Replay messages that arrived before we knew about this instance
        # (e.g. estimates addressed to us as round-0 coordinator).
        for src, payload in self._pre_propose_buffer.pop(instance, []):
            self._on_message(src, payload)

    def decision(self, instance: InstanceKey) -> Any | None:
        value = self._decisions.get(instance)
        return None if value is _COLLECTED else value

    def collect(self, instance: InstanceKey) -> None:
        """Garbage-collect a decided instance.

        Drops all round state and the (possibly large) decision value,
        leaving a tombstone so late messages for the instance are still
        recognised and ignored.  Clients that batch (atomic broadcast)
        call this once the decision has been applied.
        """
        if instance not in self._decisions:
            return
        self._decisions[instance] = _COLLECTED
        self._instances.pop(instance, None)
        self._pre_propose_buffer.pop(instance, None)
        self._count_collected.n += 1

    def abandon(self, instance: InstanceKey) -> None:
        """Stop participating in an instance that will never be needed.

        Used by pipelined atomic broadcast when a membership change voids
        optimistically started instances of the previous group epoch: the
        tombstone makes this process deaf to the instance (late messages,
        even a late decision, are ignored) and frees its round state.
        Unlike :meth:`collect` it does not require a local decision.
        """
        if self._decisions.get(instance) is _COLLECTED:
            return
        self._decisions[instance] = _COLLECTED
        self._instances.pop(instance, None)
        self._pre_propose_buffer.pop(instance, None)
        self.world.metrics.counters.inc("consensus.abandoned")

    def pre_propose_buffered(self) -> int:
        """Gauge: messages buffered for instances we have not proposed yet."""
        return sum(len(msgs) for msgs in self._pre_propose_buffer.values())

    def prune_pre_propose(self, predicate: Callable[[InstanceKey], bool]) -> int:
        """Reclaim pre-propose buffers of instances that will never start.

        The atomic broadcast layer calls this when an epoch bump or a
        snapshot install voids instance keys it never proposed locally:
        :meth:`abandon` only reaches instances the caller knows by key,
        so messages buffered for never-proposed voided instances would
        otherwise be retained forever.  Every buffered key matching
        ``predicate`` is abandoned (tombstoned), which both frees the
        buffer and makes stragglers for the key inert instead of
        re-buffered.  Returns the number of buffered messages reclaimed.
        """
        reclaimed = 0
        for key in [k for k in self._pre_propose_buffer if predicate(k)]:
            reclaimed += len(self._pre_propose_buffer[key])
            self.abandon(key)
        if reclaimed:
            self.world.metrics.counters.inc("consensus.pre_propose_pruned", reclaimed)
        return reclaimed

    # ------------------------------------------------------------------
    # Round machinery
    # ------------------------------------------------------------------
    def _get_instance(self, key: InstanceKey, participants: list[str]) -> _Instance:
        inst = self._instances.get(key)
        if inst is None:
            inst = _Instance(participants=list(participants))
            self._instances[key] = inst
        return inst

    def _enter_round(self, key: InstanceKey, inst: _Instance, rnd: int) -> None:
        if inst.decided or not inst.has_estimate:
            return
        if rnd in inst.aborted_rounds:
            # The round's coordinator already declared it dead (its ABORT
            # arrived while we were still in an earlier round); entering
            # it would wait on a proposal that will never come.
            self._enter_round(key, inst, rnd + 1)
            return
        inst.round = rnd
        inst.phase = WAIT_PROPOSE
        coord = inst.coordinator(rnd)
        self._count_rounds.n += 1
        if rnd == 0 and coord == self.pid:
            # Round-0 fast path: we are the coordinator and already hold
            # a value, so the self-addressed ESTIMATE and the majority
            # estimate read are both skipped (see the module docstring
            # for why that is safe) and the proposal goes out at once.
            self._fast_path_propose(key, inst)
            return
        self._send(coord, ("ESTIMATE", key, rnd, inst.est, inst.ts))
        buffered = inst.buffered_proposes.pop(rnd, None)
        if buffered is not None:
            self._handle_propose(key, inst, rnd, buffered)
        elif self.monitor.suspected(coord):
            self._nack_and_advance(key, inst, rnd)

    def _nack_and_advance(self, key: InstanceKey, inst: _Instance, rnd: int) -> None:
        coord = inst.coordinator(rnd)
        self._send(coord, ("NACK", key, rnd))
        self._enter_round(key, inst, rnd + 1)

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    def _send(self, dst: str, payload: tuple) -> None:
        self._count_messages.n += 1
        self.channel.send(dst, PORT, payload)

    def _on_message(self, src: str, payload: tuple) -> None:
        kind, key = payload[0], payload[1]
        if key in self._decisions:
            return
        inst = self._instances.get(key)
        if inst is None:
            # A peer started this instance before our propose(); buffer
            # the message and replay it once the client proposes.
            self._pre_propose_buffer.setdefault(key, []).append((src, payload))
            if kind == "PROPOSE":
                for callback in self._solicit_callbacks:
                    callback(key)
            return
        if kind == "ESTIMATE":
            _, _, rnd, est, ts = payload
            self._coord_on_estimate(key, inst, rnd, src, est, ts)
        elif kind == "PROPOSE":
            _, _, rnd, value = payload
            if rnd == inst.round and inst.phase == WAIT_PROPOSE:
                self._handle_propose(key, inst, rnd, value)
            elif rnd > inst.round:
                inst.buffered_proposes[rnd] = value
            elif rnd == inst.round:
                # Duplicate of the proposal we already adopted — the
                # coordinator's catch-up reply to our ESTIMATE (systematic
                # under the fast path, which proposes *before* reading
                # estimates; a classic round answers every estimate that
                # arrives after the majority).  Our ACK is already on the
                # reliable FIFO channel; NACKing here could reach the
                # coordinator before a majority of ACKs and abort a live
                # round.
                pass
            else:
                # Stale proposal: we already abandoned that round.  Tell
                # its coordinator, or it can wait forever for a majority
                # of ACKs nobody will send (the laggard-coordinator
                # deadlock the schedule explorer found on seed 1).
                self._send(src, ("NACK", key, rnd))
        elif kind == "ACK":
            _, _, rnd = payload
            self._coord_on_ack(key, inst, rnd, src)
        elif kind == "NACK":
            _, _, rnd = payload
            self._coord_on_nack(key, inst, rnd)
        elif kind == "ABORT":
            _, _, rnd = payload
            if rnd == inst.round:
                self._enter_round(key, inst, rnd + 1)
            elif rnd > inst.round:
                # Not there yet: remember the round is dead so we skip
                # it on arrival instead of dropping the notice.
                inst.aborted_rounds.add(rnd)

    def _handle_propose(self, key: InstanceKey, inst: _Instance, rnd: int, value: Any) -> None:
        inst.est = value
        inst.ts = rnd + 1  # adoption locks the value (see module docstring)
        inst.phase = WAIT_DECIDE
        coord = inst.coordinator(rnd)
        self._send(coord, ("ACK", key, rnd))
        if self.monitor.suspected(coord):
            # A replayed proposal (buffered before we proposed, or for a
            # round not yet reached) of a coordinator suspected since: the
            # edge has passed, nothing else would move us on.
            self._enter_round(key, inst, rnd + 1)

    def _fast_path_propose(self, key: InstanceKey, inst: _Instance) -> None:
        """Round-0 coordinator: propose our value without an estimate read.

        Mirrors the majority branch of :meth:`_coord_on_estimate`, minus
        the wait: the proposal is our own estimate, our adoption of it is
        recorded like any participant's (``est``/``ts``), and that
        adoption doubles as an implicit self-ACK — the decision majority
        it completes is made of real adopters, so quorum intersection
        with later estimate reads is untouched.
        """
        state = inst.coord_rounds.setdefault(0, _CoordRound())
        if state.has_proposed:
            return
        state.proposed = inst.est
        state.has_proposed = True
        inst.ts = 1  # round-0 lock, as in _handle_propose
        inst.phase = WAIT_DECIDE
        state.acks.add(self.pid)
        self._count_fast_path_proposals.n += 1
        for peer in inst.participants:
            if peer != self.pid:
                self._send(peer, ("PROPOSE", key, 0, state.proposed))
        # A singleton group has its majority already (the implicit ACK).
        self._maybe_close_round(key, inst, 0, state)

    # Coordinator side ---------------------------------------------------
    def _coord_on_estimate(
        self, key: InstanceKey, inst: _Instance, rnd: int, src: str, est: Any, ts: int
    ) -> None:
        if inst.coordinator(rnd) != self.pid:
            return
        state = inst.coord_rounds.setdefault(rnd, _CoordRound())
        if state.has_proposed:
            # Late estimate: help the laggard catch up.
            self._send(src, ("PROPOSE", key, rnd, state.proposed))
            return
        state.estimates[src] = (est, ts)
        if len(state.estimates) >= inst.majority:
            _, best = max(
                state.estimates.items(), key=lambda item: (item[1][1], item[0])
            )
            state.proposed = best[0]
            state.has_proposed = True
            for peer in inst.participants:
                self._send(peer, ("PROPOSE", key, rnd, state.proposed))

    def _coord_on_ack(self, key: InstanceKey, inst: _Instance, rnd: int, src: str) -> None:
        state = inst.coord_rounds.get(rnd)
        if state is None or state.closed or not state.has_proposed:
            return
        state.acks.add(src)
        self._maybe_close_round(key, inst, rnd, state)

    def _maybe_close_round(
        self, key: InstanceKey, inst: _Instance, rnd: int, state: _CoordRound
    ) -> None:
        if state.closed or not state.has_proposed or len(state.acks) < inst.majority:
            return
        state.closed = True
        self._count_decisions_broadcast.n += 1
        self.world.metrics.counters.inc(f"consensus.decided_round_{rnd}")
        spans = self.spans
        if spans.enabled:
            spans.point(self.pid, "consensus", "decide:bcast", "proc", self.now).note(
                instance=str(key)
            )
        self.rbcast.rbcast(DECIDE_TAG, (key, state.proposed))
        # Local short-circuit: the majority is in, so decide here and now
        # instead of waiting for the DECIDE rbcast to loop back over the
        # self-link; its later self-delivery is a no-op.
        self._count_local_decides.n += 1
        self._decide(key, state.proposed)

    def _coord_on_nack(self, key: InstanceKey, inst: _Instance, rnd: int) -> None:
        state = inst.coord_rounds.get(rnd)
        if state is None or state.closed:
            return
        if not state.nacked:
            state.nacked = True
            # The round cannot decide; unblock participants waiting for
            # the decision so the next coordinator gets its estimates.
            for peer in inst.participants:
                self._send(peer, ("ABORT", key, rnd))
        if rnd == inst.round and not inst.decided:
            # We are also a participant of our own dead round — and our
            # ABORT above may have found us *below* the round when an
            # early NACK raced our entry, in which case it was dropped.
            # Advance directly; the nacked flag must not gate this.
            self._enter_round(key, inst, rnd + 1)

    # Decision -----------------------------------------------------------
    def _on_decide_broadcast(self, _origin: str, payload: tuple, _mid: Any) -> None:
        key, value = payload
        self._decide(key, value)

    def _decide(self, key: InstanceKey, value: Any) -> None:
        if key in self._decisions:
            return
        self._decisions[key] = value
        inst = self._instances.get(key)
        if inst is not None:
            inst.decided = True
            inst.decision = value
        self._count_decided.n += 1
        self.trace("decide", instance=key)
        spans = self.spans
        if spans.enabled:
            spans.point(self.pid, "consensus", "decide", "proc", self.now).note(
                instance=str(key)
            )
        for callback in self._callbacks:
            callback(key, value)

    # Suspicion-driven progress -------------------------------------------
    def peer_suspected(self, suspect: str) -> None:
        """The monitor's suspicion edge: move every instance waiting on
        coordinator ``suspect`` on.  One that *arrives* at a suspect's
        round later checks for itself (:meth:`_enter_round`,
        :meth:`_handle_propose`)."""
        for key, inst in list(self._instances.items()):
            if inst.decided or not inst.started or inst.has_estimate is False:
                continue
            if inst.coordinator(inst.round) != suspect:
                continue
            if inst.phase == WAIT_PROPOSE:
                self._nack_and_advance(key, inst, inst.round)
            else:  # WAIT_DECIDE: the decision will never come from a dead coord
                self._enter_round(key, inst, inst.round + 1)
