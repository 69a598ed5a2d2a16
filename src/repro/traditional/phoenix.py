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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.abcast.sequencer import SequencerAtomicBroadcast
from repro.broadcast.rbcast import ReliableBroadcast
from repro.consensus.chandra_toueg import ChandraTouegConsensus
from repro.fd.heartbeat import HeartbeatFailureDetector
from repro.membership.view import View
from repro.net.message import AppMessage, MsgId
from repro.net.reliable import ReliableChannel
from repro.sim.process import Component, Process
from repro.sim.world import World

MSG_PORT = "pvs.msg"
GATHER_PORT = "pvs.gather"
GATHER_OK_PORT = "pvs.gather_ok"
PROPOSAL_PORT = "pvs.proposal"

DeliverFn = Callable[[str, Any, MsgId], None]


class PhoenixViewMembership(Component):
    """Membership + view synchrony in one layer, over consensus."""

    def __init__(
        self,
        process: Process,
        channel: ReliableChannel,
        consensus: ChandraTouegConsensus,
        fd: HeartbeatFailureDetector,
        initial_view: View | None,
        exclusion_timeout: float = 500.0,
    ) -> None:
        super().__init__(process, "pvs")
        self.channel = channel
        self.consensus = consensus
        self.view = initial_view
        self.blocked = False
        self._handlers: dict[str, DeliverFn] = {}
        self._received: dict[MsgId, tuple[str, str, Any]] = {}
        self._delivered_ids: set[MsgId] = set()
        self._queued_out: list[tuple[MsgId, str, Any]] = []
        self._future_msgs: list[tuple[int, MsgId, str, str, Any]] = []
        self._gathering: dict[int, dict[str, dict]] = {}
        self._proposed_for: set[int] = set()
        self._pending_joins: set[str] = set()
        self._view_callbacks: list[Callable[[View], None]] = []
        self.view_history: list[View] = [] if initial_view is None else [initial_view]
        self.monitor = fd.monitor(
            self.current_members, exclusion_timeout, on_suspect=lambda _q: self._act()
        )
        self.register_port(MSG_PORT, self._on_msg)
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

    # ------------------------------------------------------------------
    # TaggedBroadcast interface (used by the sequencer abcast above)
    # ------------------------------------------------------------------
    def register(self, tag: str, handler: DeliverFn) -> None:
        if tag in self._handlers:
            raise ValueError(f"duplicate pvs tag {tag!r} on {self.pid}")
        self._handlers[tag] = handler

    def bcast(self, tag: str, payload: Any) -> MsgId:
        mid = self.process.msg_ids.next()
        if self.view is None or self.blocked:
            self._queued_out.append((mid, tag, payload))
            self.world.metrics.counters.inc("vs.sends_blocked")
            self.world.metrics.latency.begin("vs.send_delay", mid, self.now)
            return mid
        self._send(mid, tag, payload)
        return mid

    def _send(self, mid: MsgId, tag: str, payload: Any) -> None:
        self.world.metrics.counters.inc("vs.broadcasts")
        packet = (mid, self.pid, self.view.id, tag, payload)
        self.channel.send_to_all(self.view.member_list(), MSG_PORT, packet)

    def _on_msg(self, _src: str, packet: tuple) -> None:
        mid, origin, view_id, tag, payload = packet
        if self.view is None:
            return
        if view_id == self.view.id:
            self._deliver(mid, origin, tag, payload)
        elif view_id > self.view.id:
            self._future_msgs.append((view_id, mid, origin, tag, payload))

    def _deliver(self, mid: MsgId, origin: str, tag: str, payload: Any) -> None:
        if mid in self._delivered_ids:
            return
        self._delivered_ids.add(mid)
        self._received[mid] = (origin, tag, payload)
        self.world.metrics.counters.inc("vs.delivered")
        handler = self._handlers.get(tag)
        if handler is not None:
            handler(origin, payload, mid)

    # ------------------------------------------------------------------
    # Membership operations
    # ------------------------------------------------------------------
    def join(self, pid: str) -> None:
        if self.view is not None and pid in self.view:
            return
        self._pending_joins.add(pid)
        self._act()

    def current_members(self) -> list[str]:
        return [] if self.view is None else self.view.member_list()

    def current_view(self) -> View | None:
        return self.view

    def on_new_view(self, callback: Callable[[View], None]) -> None:
        self._view_callbacks.append(callback)

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

    def _block(self) -> None:
        if not self.blocked:
            self.blocked = True
            self.world.metrics.counters.inc("vs.blocks")
            self.world.metrics.intervals.begin("vs.blocked", (self.pid, self.view.id), self.now)

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
            merged: dict[MsgId, tuple[str, str, Any]] = {}
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
        self.consensus.propose(
            ("pview", target_view_id), proposal, self.view.member_list()
        )

    def _on_decide(self, key: Any, value: Any) -> None:
        if not (isinstance(key, tuple) and key[0] == "pview") or self.view is None:
            return
        target_view_id = key[1]
        if target_view_id != self.view.id + 1:
            return
        new_members, merged = value
        for mid in sorted(merged):
            origin, tag, payload = merged[mid]
            self._deliver(mid, origin, tag, payload)
        ordered = [m for m in self.view.members if m in new_members]
        ordered += [m for m in new_members if m not in ordered]
        self._install(View(target_view_id, tuple(ordered)))

    def _install(self, new_view: View) -> None:
        old_view_id = self.view.id
        excluded = set(self.view.members) - set(new_view.members)
        self.view = new_view
        self.view_history.append(new_view)
        self._received = {}
        self._pending_joins -= set(new_view.members)
        for gone in excluded:
            self.channel.discard(gone)
        if self.blocked:
            self.blocked = False
            self.world.metrics.intervals.end("vs.blocked", (self.pid, old_view_id), self.now)
        self.world.metrics.counters.inc("vs.views_installed")
        self.trace("new_view", view=str(new_view))
        queued, self._queued_out = self._queued_out, []
        if self.pid in new_view:
            for mid, tag, payload in queued:
                self.world.metrics.latency.end("vs.send_delay", mid, self.now)
                self._send(mid, tag, payload)
        ready = [m for m in self._future_msgs if m[0] == new_view.id]
        self._future_msgs = [m for m in self._future_msgs if m[0] > new_view.id]
        for _view_id, mid, origin, tag, payload in ready:
            self._deliver(mid, origin, tag, payload)
        for callback in self._view_callbacks:
            callback(new_view)


@dataclass(frozen=True)
class PhoenixConfig:
    heartbeat_interval: float = 10.0
    consensus_suspicion_timeout: float = 60.0
    exclusion_timeout: float = 500.0
    #: Reliable-channel retransmission timeout until the first round-trip
    #: sample (it then follows the link, see ``repro.net.reliable``).
    initial_rto: float = 40.0


class PhoenixStack:
    """All Fig. 2 layers of one process."""

    def __init__(
        self,
        process: Process,
        initial_members: list[str],
        config: PhoenixConfig | None = None,
    ) -> None:
        self.process = process
        self.config = config or PhoenixConfig()
        cfg = self.config
        initial_view = View.initial(initial_members)

        self.channel = ReliableChannel(process, initial_rto=cfg.initial_rto)
        members = lambda: self.membership.current_members()
        self.fd = HeartbeatFailureDetector(
            process, members, heartbeat_interval=cfg.heartbeat_interval
        )
        self.rbcast = ReliableBroadcast(process, self.channel, members)
        self.consensus = ChandraTouegConsensus(
            process,
            self.channel,
            self.rbcast,
            self.fd.monitor(members, cfg.consensus_suspicion_timeout),
        )
        self.membership = PhoenixViewMembership(
            process,
            self.channel,
            self.consensus,
            self.fd,
            initial_view,
            exclusion_timeout=cfg.exclusion_timeout,
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


def build_phoenix_group(
    world: World, count: int, config: PhoenixConfig | None = None, start_index: int = 0
) -> dict[str, PhoenixStack]:
    pids = world.spawn(count, start_index=start_index)
    return {pid: PhoenixStack(world.process(pid), pids, config=config) for pid in pids}
