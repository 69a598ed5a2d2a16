"""The Phoenix architecture (Fig. 2): Consensus → (Membership + View
Synchrony) → Atomic Broadcast.

Section 2.1.2: Phoenix is a variation of Isis where the basic layer
solves *consensus*, and both the membership problem and view synchrony
are solved using that consensus layer.  Atomic broadcast is again a fixed
sequencer on top.  Unlike Isis, membership is at the level of
*processes*, not processors: an excluded process is not killed, and
computation can proceed in every network component that holds a majority
of some group (the S/S' partition scenario of Section 2.1.2 —
reproduced in ``benchmarks/bench_fig2_phoenix.py``).

View change protocol (consensus-based flush):

1. a member that suspects someone (or sponsors a join) *blocks* and
   broadcasts ``GATHER``;
2. every member blocks and replies with its received-message set;
3. the gatherer merges the sets of the unsuspected members and
   broadcasts a view *proposal* (new member list + merged set);
4. every member proposes the (first) proposal it saw for consensus
   instance ``view_id + 1``; consensus picks exactly one;
5. everyone delivers the missing messages of the decided set (still in
   the old view), installs the decided view, and unblocks.

Because the decision goes through consensus, concurrent view-change
initiators are harmless — a clear robustness advantage over the Isis
flush, which the paper credits to Phoenix's consensus-based design.

Blocking, queueing, the delivery of step 5 and the install are Isis's
too: :class:`PhoenixViewMembership` is a
:class:`~repro.traditional.view_synchrony.ViewSynchrony` that adds only
steps 1–4.
"""

from __future__ import annotations

from typing import Any

from repro.abcast.sequencer import SequencerAtomicBroadcast
from repro.broadcast.rbcast import ReliableBroadcast
from repro.consensus.chandra_toueg import ChandraTouegConsensus
from repro.fd.heartbeat import HeartbeatFailureDetector
from repro.membership.view import View
from repro.net.message import AppMessage
from repro.net.reliable import ReliableChannel
from repro.sim.process import Process
from repro.traditional.view_synchrony import Received, ViewSynchrony

GATHER_PORT = "pvs.gather"
GATHER_OK_PORT = "pvs.gather_ok"
PROPOSAL_PORT = "pvs.proposal"

#: The small timeout of the consensus layer's own monitor.
CONSENSUS_SUSPICION_TIMEOUT = 60.0


class PhoenixViewMembership(ViewSynchrony):
    """Membership + view synchrony in one layer: the view-synchronous
    broadcast of :class:`ViewSynchrony`, its next view decided by
    consensus."""

    name = "pvs"

    def __init__(
        self,
        process: Process,
        channel: ReliableChannel,
        consensus: ChandraTouegConsensus,
        fd: HeartbeatFailureDetector,
        initial_view: View | None,
        exclusion_timeout: float,
    ) -> None:
        super().__init__(process, channel, initial_view)
        self.consensus = consensus
        self._gathering: dict[int, dict[str, Received]] = {}
        self._proposed_for: set[int] = set()
        self._pending_joins: set[str] = set()
        self.monitor = fd.monitor(self.current_members, exclusion_timeout)
        self.monitor.subscribe(lambda _q: self._act())
        self.register_port(GATHER_PORT, self._on_gather)
        self.register_port(GATHER_OK_PORT, self._on_gather_ok)
        self.register_port(PROPOSAL_PORT, self._on_proposal)
        consensus.on_decide(self._on_decide)

    def start(self) -> None:
        # Re-check periodically: a crash surviving a lost view change
        # round must eventually trigger another one.
        self.schedule(100.0, self._tick)

    def _tick(self) -> None:
        self._act()
        self.schedule(100.0, self._tick)

    def join(self, pid: str) -> None:
        if self.view is not None and pid in self.view:
            return
        self._pending_joins.add(pid)
        self._act()

    # ------------------------------------------------------------------
    # Consensus-based view change
    # ------------------------------------------------------------------
    def _act(self) -> None:
        if self.view is None:
            return
        suspects = self.monitor.suspects & set(self.view.members)
        if not suspects and not self._pending_joins:
            return
        target_view_id = self.view.id + 1
        if target_view_id in self._gathering or target_view_id in self._proposed_for:
            return
        self._gathering[target_view_id] = {}
        self._block()
        self.world.metrics.counters.inc("pvs.gathers_started")
        self.channel.send_to_all(self.view.member_list(), GATHER_PORT, self.view.id)

    def _on_gather(self, src: str, old_view_id: int) -> None:
        if self.view is None or old_view_id != self.view.id:
            return
        self._block()
        self.channel.send(src, GATHER_OK_PORT, (old_view_id, dict(self._received)))

    def _on_gather_ok(self, src: str, reply: tuple) -> None:
        old_view_id, received = reply
        if self.view is None or old_view_id != self.view.id:
            return
        target_view_id = old_view_id + 1
        gathering = self._gathering.get(target_view_id)
        if gathering is None:
            return
        gathering[src] = received
        live = [m for m in self.view.members if m not in self.monitor.suspects]
        if all(m in gathering for m in live):
            merged: Received = {}
            for received_map in gathering.values():
                merged.update(received_map)
            new_members = live + sorted(self._pending_joins)
            proposal = (new_members, merged)
            self.channel.send_to_all(self.view.member_list(), PROPOSAL_PORT, proposal)
            del self._gathering[target_view_id]

    def _on_proposal(self, _src: str, proposal: tuple) -> None:
        if self.view is None:
            return
        target_view_id = self.view.id + 1
        if target_view_id in self._proposed_for:
            return
        self._proposed_for.add(target_view_id)
        self._block()
        self.world.metrics.counters.inc("pvs.view_proposals")
        self.consensus.propose(target_view_id, proposal, self.view.member_list())

    def _on_decide(self, target_view_id: int, value: Any) -> None:
        if self.view is None or target_view_id != self.view.id + 1:
            return
        new_members, merged = value
        self._deliver_merged(merged)
        ordered = [m for m in self.view.members if m in new_members]
        ordered += [m for m in new_members if m not in ordered]
        self._pending_joins -= set(ordered)
        # A member the decision left out installs the view all the same:
        # Phoenix excludes processes without killing them.
        self._install(View(target_view_id, tuple(ordered)))


class PhoenixStack:
    """All Fig. 2 layers of one process."""

    def __init__(
        self,
        process: Process,
        initial_members: list[str],
        *,
        exclusion_timeout: float = 500.0,
    ) -> None:
        self.process = process
        initial_view = View.initial(initial_members)

        self.channel = ReliableChannel(process)
        members = lambda: self.membership.current_members()
        self.fd = HeartbeatFailureDetector(process, members)
        self.rbcast = ReliableBroadcast(process, self.channel, members)
        self.consensus = ChandraTouegConsensus(
            process,
            self.channel,
            self.rbcast,
            self.fd.monitor(members, CONSENSUS_SUSPICION_TIMEOUT),
        )
        self.membership = PhoenixViewMembership(
            process,
            self.channel,
            self.consensus,
            self.fd,
            initial_view,
            exclusion_timeout=exclusion_timeout,
        )
        self.abcast = SequencerAtomicBroadcast(
            process, self.channel, self.membership, self.membership.current_view
        )
        self.membership.on_new_view(self.abcast.on_view_change)

    @property
    def pid(self) -> str:
        return self.process.pid

    def abcast_payload(self, payload: Any) -> AppMessage:
        message = self.process.msg_ids.message(payload)
        self.abcast.abcast(message)
        return message

    def view(self) -> View | None:
        return self.membership.current_view()

    def delivered_payloads(self) -> list[Any]:
        return [m.payload for m in self.abcast.delivered_log]

    LAYERS = ["consensus", "membership + view synchrony", "atomic broadcast"]
    ORDERING_SOLVERS = [
        "membership/VS (orders views and messages vs. views, via consensus)",
        "atomic broadcast (orders messages)",
    ]
