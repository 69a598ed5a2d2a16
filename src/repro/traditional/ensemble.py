"""The Ensemble architecture (Fig. 5): a modular protocol stack.

Section 2.2: Ensemble composes off-the-shelf layers into a custom stack.
The sample stack of Fig. 5, bottom to top:

    Network → Reliable FIFO → Stable → Atomic Broadcast →
    Applic_Interface → Failure Detection → (View Synchrony +) Sync →
    Membership

Two Ensemble idiosyncrasies the paper points out are reproduced:

* **The application is not the uppermost layer** — components active in
  normal runs sit below it, components handling abnormal scenarios sit
  above, so hot-path events traverse fewer layers (measured by the
  ``ens.event_hops`` counter in the Fig. 5 bench).
* **Stability notifications bounce**: when the Stable layer detects that
  a message is stable it emits an event that travels *down* to the bottom
  of the stack, bounces, and travels back *up* through every component
  (``ens.bounces`` counter).

The Sync layer implements the blocking of Section 4.4: on a view change
it blocks the application interface until the new view is installed —
the sending-view-delivery cost that generic broadcast avoids.

The layers here favour architectural fidelity over protocol-grade
robustness (the rigorous baselines are the Isis/Phoenix/RMP/Totem
stacks); the Ensemble stack's job is to reproduce Fig. 5's composition,
event routing and Sync behaviour.
"""

from __future__ import annotations

from typing import Any

from repro.fd.heartbeat import HeartbeatFailureDetector
from repro.membership.view import View
from repro.net.reliable import ReliableChannel
from repro.sim.process import Process
from repro.stack.events import (
    APP_DELIVER,
    BLOCK,
    CAST,
    DELIVER,
    PT2PT,
    STABLE,
    SUSPECT,
    UNBLOCK,
    VIEW,
    Event,
)
from repro.stack.kernel import StackKernel
from repro.stack.layer import Layer

#: How long the membership lets in-flight messages settle before it
#: installs a decided view (an approximate flush).
SETTLE_DELAY = 30.0


class ReliableFifoLayer(Layer):
    """Bottom layer: per-link reliable FIFO (provided by the channel)."""

    name = "reliable_fifo"

    def on_up(self, event: Event) -> None:
        if event.type == DELIVER:
            self.kernel.world.metrics.counters.inc("ens.fifo_delivered")
        self.pass_on(event)


class StableLayer(Layer):
    """Detects message stability; emits bouncing STABLE events."""

    name = "stable"

    def __init__(self) -> None:
        super().__init__()
        self._acks: dict[Any, set[str]] = {}
        self._stable: set[Any] = set()

    def on_up(self, event: Event) -> None:
        if event.type == DELIVER and event.get("kind") == "ack":
            mid = event["mid"]
            self._acks.setdefault(mid, set()).add(event["origin"])
            members = set(self.kernel.group_provider())
            if members <= self._acks[mid] and mid not in self._stable:
                self._stable.add(mid)
                self.kernel.world.metrics.counters.inc("ens.stabilized")
                # The paper's bouncing pattern: down to the bottom, then
                # back up through the whole stack.
                self.emit_down(STABLE, bounce=True, mid=mid)
            return  # acks are consumed here
        if event.type == DELIVER and event.get("kind") == "order":
            # Acknowledge data so everyone can detect stability.
            self._acks.setdefault(event["mid"], set()).add(self.pid)
            for member in self.kernel.group_provider():
                if member != self.pid:
                    self.emit_down(PT2PT, dst=member, kind="ack", mid=event["mid"])
        self.pass_on(event)


class AtomicBroadcastLayer(Layer):
    """Failure-free fixed-sequencer total order (Section 2.2: 'the atomic
    broadcast component only orders messages in the absence of failures')."""

    name = "atomic_broadcast"

    def __init__(self) -> None:
        super().__init__()
        self.view: View | None = None
        self._next_assign = 0
        self._next_deliver = 0
        self._ordered: dict[int, tuple[Any, Any]] = {}
        self._unsequenced: dict[Any, Any] = {}
        self._seen: set[Any] = set()

    @property
    def sequencer(self) -> str | None:
        return None if self.view is None else self.view.primary

    def on_down(self, event: Event) -> None:
        if event.type == CAST and event.get("kind") == "data":
            mid, payload = event["mid"], event["payload"]
            self._unsequenced[mid] = payload
            if self.sequencer == self.pid:
                self._sequence(mid, payload)
            else:
                self.emit_down(PT2PT, dst=self.sequencer, kind="fwd", mid=mid, payload=payload)
            return
        if event.type == VIEW:
            self.view = event["view"]
            if self.sequencer == self.pid:
                self._next_assign = max(self._next_assign, self._next_deliver)
            for mid, payload in sorted(self._unsequenced.items()):
                if mid not in self._seen:
                    self.emit_down(
                        PT2PT, dst=self.sequencer, kind="fwd", mid=mid, payload=payload
                    )
        self.pass_on(event)

    def _sequence(self, mid: Any, payload: Any) -> None:
        if mid in self._seen:
            return
        self._seen.add(mid)
        seq = self._next_assign
        self._next_assign += 1
        self.emit_down(CAST, kind="order", seq=seq, mid=mid, payload=payload)

    def on_up(self, event: Event) -> None:
        if event.type == DELIVER and event.get("kind") == "fwd":
            if self.sequencer == self.pid:
                self._sequence(event["mid"], event["payload"])
            return
        if event.type == DELIVER and event.get("kind") == "order":
            seq, mid, payload = event["seq"], event["mid"], event["payload"]
            self._seen.add(mid)
            self._ordered.setdefault(seq, (mid, payload))
            self._next_assign = max(self._next_assign, seq + 1)
            while self._next_deliver in self._ordered:
                dmid, dpayload = self._ordered[self._next_deliver]
                self._next_deliver += 1
                self._unsequenced.pop(dmid, None)
                self.emit_up(APP_DELIVER, mid=dmid, payload=dpayload)
            # The raw order event still travels up (Stable acked it already).
        self.pass_on(event)


class AppInterfaceLayer(Layer):
    """The application's attachment point (NOT the top of the stack)."""

    name = "app_interface"

    def __init__(self) -> None:
        super().__init__()
        self.blocked = False
        self._queue: list[Any] = []
        self.delivered: list[Any] = []
        self._counter = 0

    def send(self, payload: Any) -> None:
        if self.blocked:
            self.kernel.world.metrics.counters.inc("vs.sends_blocked")
            self._queue.append(payload)
            return
        self._cast(payload)

    def _cast(self, payload: Any) -> None:
        self._counter += 1
        mid = (self.pid, self._counter)
        self.kernel.world.metrics.latency.begin("abcast", mid, self.now)
        self.emit_down(CAST, kind="data", mid=mid, payload=payload)

    def on_up(self, event: Event) -> None:
        if event.type == APP_DELIVER:
            self.delivered.append(event["payload"])
            self.kernel.world.metrics.latency.end("abcast", event["mid"], self.now)
            return  # consumed: the app has it
        self.pass_on(event)

    def on_down(self, event: Event) -> None:
        if event.type == BLOCK:
            if not self.blocked:
                self.blocked = True
                self.kernel.world.metrics.counters.inc("vs.blocks")
                self.kernel.world.metrics.latency.begin(
                    "vs.blocked", (self.pid, event.get("view_id")), self.now
                )
        elif event.type == UNBLOCK:
            if self.blocked:
                self.blocked = False
                self.kernel.world.metrics.latency.end(
                    "vs.blocked", (self.pid, event.get("view_id")), self.now
                )
                queued, self._queue = self._queue, []
                for payload in queued:
                    self._cast(payload)
        self.pass_on(event)


class FailureDetectionLayer(Layer):
    """Adapts the heartbeat failure detector into SUSPECT events."""

    name = "failure_detection"

    def __init__(self, fd: HeartbeatFailureDetector, timeout: float) -> None:
        super().__init__()
        self.fd = fd
        self.timeout = timeout
        self.monitor = None

    def start(self) -> None:
        self.monitor = self.fd.monitor(self.kernel.group_provider, self.timeout)
        self.monitor.subscribe(self._suspect)

    def _suspect(self, pid: str) -> None:
        self.emit_up(SUSPECT, pid=pid)


class SyncLayer(Layer):
    """Blocks the group while a membership change is in progress
    (Section 2.2: 'a protocol for blocking a group during view changes')."""

    name = "sync"

    def on_up(self, event: Event) -> None:
        if event.type == DELIVER and event.get("kind") == "view_proposal":
            self.emit_down(BLOCK, view_id=event["view_id"])
        self.pass_on(event)

    def on_down(self, event: Event) -> None:
        if event.type == VIEW:
            self.pass_on(event)
            self.emit_down(UNBLOCK, view_id=event["view"].id)
            return
        self.pass_on(event)


class MembershipLayer(Layer):
    """Top of the stack: decides and installs views."""

    name = "membership"

    def __init__(self, initial_view: View) -> None:
        super().__init__()
        self.view = initial_view
        self.view_history = [initial_view]
        self._suspects: set[str] = set()
        self._proposed: set[int] = set()

    def on_up(self, event: Event) -> None:
        if event.type == SUSPECT:
            self._suspects.add(event["pid"])
            live = [m for m in self.view.members if m not in self._suspects]
            if live and live[0] == self.pid:
                target = self.view.id + 1
                if target not in self._proposed:
                    self._proposed.add(target)
                    self.emit_down(
                        CAST, kind="view_proposal", view_id=target, members=tuple(live)
                    )
            return
        if event.type == DELIVER and event.get("kind") == "view_proposal":
            view_id, members = event["view_id"], event["members"]
            if view_id == self.view.id + 1:
                # Let in-flight messages settle, then install (approximate
                # flush; rigorous VS lives in the Isis/Phoenix stacks).
                self.kernel.schedule_for(
                    self, SETTLE_DELAY, self._install, View(view_id, tuple(members))
                )
            return
        # Anything else exits the top silently (e.g. bounced STABLE).

    def _install(self, view: View) -> None:
        if view.id != self.view.id + 1:
            return
        self.view = view
        self.view_history.append(view)
        self.kernel.world.metrics.counters.inc("vs.views_installed")
        self.emit_down(VIEW, view=view)


class EnsembleStack:
    """The Fig. 5 sample stack, composed on the event-routing kernel."""

    LAYERS = [
        "reliable_fifo",
        "stable",
        "atomic_broadcast",
        "app_interface",
        "failure_detection",
        "sync",
        "membership",
    ]
    ORDERING_SOLVERS = [
        "atomic broadcast (orders messages, failure-free)",
        "membership suite (orders views)",
        "sync/VS (orders messages vs. view changes)",
    ]

    def __init__(
        self,
        process: Process,
        initial_members: list[str],
        *,
        exclusion_timeout: float = 500.0,
    ) -> None:
        self.process = process
        view = View.initial(initial_members)

        self.channel = ReliableChannel(process)
        self.fd = HeartbeatFailureDetector(process, lambda: self.membership.view.member_list())
        self.app = AppInterfaceLayer()
        self.membership = MembershipLayer(view)
        self.layers = [
            ReliableFifoLayer(),
            StableLayer(),
            AtomicBroadcastLayer(),
            self.app,
            FailureDetectionLayer(self.fd, exclusion_timeout),
            SyncLayer(),
            self.membership,
        ]
        self.kernel = StackKernel(
            process, self.channel, self.layers, lambda: self.membership.view.member_list()
        )
        # Seed the abcast layer's view.
        abcast = self.kernel.layer("atomic_broadcast")
        abcast.view = view

    @property
    def pid(self) -> str:
        return self.process.pid

    def abcast_payload(self, payload: Any) -> None:
        """Totally-ordered multicast to the group."""
        self.app.send(payload)

    def delivered_payloads(self) -> list[Any]:
        return list(self.app.delivered)

    def view(self) -> View:
        return self.membership.view

