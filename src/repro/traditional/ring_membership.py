"""Membership layers for the token-ring stacks (RMP and Totem).

Two modes, matching the two architectures:

* **RMP** (Fig. 3) splits membership in two: *fault-free* membership
  implements joins/leaves by atomically broadcasting them over the ring
  itself ("this totally orders joins/leaves with respect to any other
  application message"), while *fault-tolerant* membership handles
  crashes with the two-phase reformation protocol
  (:mod:`repro.traditional.ring_recovery`).
* **Totem** (Fig. 4) uses the reformation protocol for *both* joins and
  failures; its recovery step replays the merged ring history to the
  joiner, which is how Totem transfers state.

In both, failure detection is coupled to exclusion (a suspicion triggers
reformation straight away) — the traditional-architecture property of
Section 2.3.1.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.abcast.token_ring import TokenRingAtomicBroadcast
from repro.fd.heartbeat import HeartbeatFailureDetector
from repro.membership.view import View
from repro.net.message import AppMessage
from repro.net.reliable import ReliableChannel
from repro.sim.process import Component, Process
from repro.traditional.ring_recovery import RingReformation

CTL_CLASS = "_ring.ctl"
JOIN_REQ_PORT = "ringgm.join_req"
STATE_PORT = "ringgm.state"

#: Period (ms) at which a member re-checks its suspects and, if it is the
#: lowest-ranked unsuspected one, (re-)starts the reformation.
RETRY_INTERVAL = 250.0

EMPTY_VIEW = View(-1, ())

StateProvider = Callable[[], Any]
StateInstaller = Callable[[Any], None]


class RingMembership(Component):
    """View management for a token-ring stack."""

    def __init__(
        self,
        process: Process,
        channel: ReliableChannel,
        token: TokenRingAtomicBroadcast,
        fd: HeartbeatFailureDetector,
        initial_view: View | None,
        mode: str,
        exclusion_timeout: float,
    ) -> None:
        if mode not in ("rmp", "totem"):
            raise ValueError(f"unknown ring membership mode {mode!r}")
        super().__init__(process, "ringgm")
        self.channel = channel
        self.token = token
        self.mode = mode
        self.view = initial_view
        self.view_history: list[View] = [] if initial_view is None else [initial_view]
        self._pending_joins: set[str] = set()
        self._view_callbacks: list[Callable[[View], None]] = []
        self._state_provider: StateProvider = lambda: None
        self._state_installer: StateInstaller = lambda state: None
        self.reformation = RingReformation(
            process, channel, token, self.current_view, self._install
        )
        self.monitor = fd.monitor(self.current_members, exclusion_timeout)
        self.monitor.subscribe(lambda _q: self._act())
        self.register_port(JOIN_REQ_PORT, self._on_join_request)
        self.register_port(STATE_PORT, self._on_state)
        if mode == "rmp":
            token.on_adeliver(self._on_ring_ctl)

    def start(self) -> None:
        self.schedule(RETRY_INTERVAL, self._tick)

    # ------------------------------------------------------------------
    # Providers
    # ------------------------------------------------------------------
    def current_view(self) -> View | None:
        return self.view

    def ring_view(self) -> View:
        """Non-optional view for the token component (joiners see none)."""
        return self.view if self.view is not None else EMPTY_VIEW

    def current_members(self) -> list[str]:
        return [] if self.view is None else self.view.member_list()

    def on_new_view(self, callback: Callable[[View], None]) -> None:
        self._view_callbacks.append(callback)

    def set_state_handlers(self, provider: StateProvider, installer: StateInstaller) -> None:
        self._state_provider = provider
        self._state_installer = installer

    # ------------------------------------------------------------------
    # Joins / leaves
    # ------------------------------------------------------------------
    def join(self, pid: str) -> None:
        """Sponsor ``pid``'s join (called on a current member)."""
        if self.view is None or pid in self.view:
            return
        if self.mode == "rmp":
            # Fault-free membership: the join rides the ring's own total
            # order, like any application message.
            message = AppMessage(self.process.msg_ids.next(), self.pid, ("join", pid), CTL_CLASS)
            self.world.metrics.counters.inc("ringgm.ctl_broadcasts")
            self.token.abcast(message)
        else:
            self._pending_joins.add(pid)
            self.reformation.initiate(self.view.member_list() + [pid])

    def leave(self, pid: str) -> None:
        if self.view is None or pid not in self.view:
            return
        if self.mode == "rmp":
            message = AppMessage(self.process.msg_ids.next(), self.pid, ("leave", pid), CTL_CLASS)
            self.world.metrics.counters.inc("ringgm.ctl_broadcasts")
            self.token.abcast(message)
        else:
            self.reformation.initiate([m for m in self.view.members if m != pid])

    def request_join(self, seed: str) -> None:
        """Called on the joining process itself."""
        self.channel.send(seed, JOIN_REQ_PORT, self.pid)

    def _on_join_request(self, _src: str, pid: str) -> None:
        self.join(pid)

    # RMP fault-free path: control messages delivered in ring order.
    def _on_ring_ctl(self, message: AppMessage) -> None:
        if message.msg_class != CTL_CLASS or self.view is None:
            return
        op, pid = message.payload
        if op == "join" and pid not in self.view:
            self._install(self.view.with_joined(pid))
            if self.view.primary == self.pid:
                self.schedule(0.0, self._send_state, pid)
        elif op == "leave" and pid in self.view:
            self._install(self.view.without(pid))

    def _send_state(self, joiner: str) -> None:
        snapshot = {
            "view": self.view,
            "token": self.token.membership_snapshot(),
            "app": self._state_provider(),
        }
        self.world.metrics.counters.inc("ringgm.state_transfers")
        self.channel.send(joiner, STATE_PORT, snapshot)

    def _on_state(self, _src: str, snapshot: dict) -> None:
        if self.view is not None:
            return
        self.token.install_membership_snapshot(snapshot["token"])
        self._state_installer(snapshot["app"])
        self._install(snapshot["view"])

    # ------------------------------------------------------------------
    # Failures: suspicion => reformation (coupled, as in the paper)
    # ------------------------------------------------------------------
    def _act(self) -> None:
        if self.view is None:
            return
        suspects = self.monitor.suspects & set(self.view.members)
        if not suspects:
            return
        live = [m for m in self.view.members if m not in suspects]
        if not live or live[0] != self.pid:
            return  # the lowest-ranked unsuspected member initiates
        self.world.metrics.counters.inc("ringgm.failure_reforms")
        self.reformation.initiate(live + sorted(self._pending_joins))

    def _tick(self) -> None:
        self._act()
        self.schedule(RETRY_INTERVAL, self._tick)

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def _install(self, view: View) -> None:
        previous = self.view
        self.view = view
        self.view_history.append(view)
        self._pending_joins -= set(view.members)
        if previous is not None:
            for gone in set(previous.members) - set(view.members):
                self.channel.discard(gone)
        self.world.metrics.counters.inc("gm.views_installed")
        self.trace("new_view", view=str(view))
        for callback in self._view_callbacks:
            callback(view)
