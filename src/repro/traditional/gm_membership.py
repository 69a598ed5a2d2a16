"""Traditional group membership: failure detection coupled to exclusion.

This layer reproduces the property the paper criticises in
Section 2.3.1: *group membership and failure detection are strongly
coupled* — a single failure-detection timeout drives exclusion directly,
and "the group membership component acts as a failure detection component
for the rest of the system".

Every suspicion is routed to the deterministic coordinator (the
lowest-ranked member of the current view not itself suspected), which
immediately runs the view-synchrony flush to exclude the suspect.  A
wrongly suspected process is excluded anyway and — Isis semantics — is
killed when it observes its own exclusion; re-inclusion requires a join
with a full state transfer.  This is exactly the false-suspicion cost
that forces traditional systems to use large timeouts (Section 4.3).
"""

from __future__ import annotations

from typing import Any, Callable

from repro.fd.heartbeat import HeartbeatFailureDetector
from repro.membership.view import View
from repro.net.reliable import ReliableChannel
from repro.sim.process import Component, Process
from repro.traditional.view_synchrony import FlushViewSynchrony

SUSPECT_PORT = "tgm.suspect"
JOIN_PORT = "tgm.join"
STATE_PORT = "tgm.state"

StateProvider = Callable[[], Any]
StateInstaller = Callable[[Any], None]


class TraditionalMembership(Component):
    """Membership driving the VS flush; suspicion == exclusion."""

    def __init__(
        self,
        process: Process,
        channel: ReliableChannel,
        vs: FlushViewSynchrony,
        fd: HeartbeatFailureDetector,
        exclusion_timeout: float,
    ) -> None:
        super().__init__(process, "tgm")
        self.channel = channel
        self.vs = vs
        self._suspects: set[str] = set()
        self._pending_joins: set[str] = set()
        self._state_provider: StateProvider = lambda: None
        self._state_installer: StateInstaller = lambda state: None
        # THE defining coupling: one timeout, straight to exclusion.
        self.monitor = fd.monitor(vs.current_members, exclusion_timeout)
        self.monitor.subscribe(self._on_suspect)
        self.register_port(SUSPECT_PORT, self._on_suspect_report)
        self.register_port(JOIN_PORT, self._on_join_request)
        self.register_port(STATE_PORT, self._on_state)
        vs.on_new_view(self._on_new_view)
        vs.on_excluded(self._on_excluded)

    # ------------------------------------------------------------------
    # Suspicion handling
    # ------------------------------------------------------------------
    def coordinator(self) -> str | None:
        view = self.vs.current_view()
        if view is None:
            return None
        for member in view.members:
            if member not in self._suspects:
                return member
        return None

    def _on_suspect(self, suspect: str) -> None:
        self.world.metrics.counters.inc("tgm.suspicions")
        self._suspects.add(suspect)
        self._act()

    def _on_suspect_report(self, _src: str, suspect: str) -> None:
        # Reported suspicions are adopted outright (Isis-style).
        if suspect in self.vs.current_members():
            self._suspects.add(suspect)
            self._act()

    def _act(self) -> None:
        """Route the change to the coordinator, or run it if that's us."""
        coordinator = self.coordinator()
        if coordinator is None:
            return
        view = self.vs.current_view()
        if coordinator == self.pid:
            survivors = [m for m in view.members if m not in self._suspects]
            new_members = survivors + sorted(self._pending_joins)
            if set(new_members) != set(view.members):
                self.vs.initiate_view_change(new_members)
        else:
            for suspect in sorted(self._suspects):
                self.channel.send(coordinator, SUSPECT_PORT, suspect)
            for joiner in sorted(self._pending_joins):
                self.channel.send(coordinator, JOIN_PORT, joiner)

    # ------------------------------------------------------------------
    # Joins
    # ------------------------------------------------------------------
    def join(self, pid: str) -> None:
        """Sponsor ``pid``'s join (called on any current member)."""
        if pid in self.vs.current_members():
            return
        self._pending_joins.add(pid)
        self._act()

    def request_join(self, seed: str) -> None:
        """Called on the joining process itself."""
        self.channel.send(seed, JOIN_PORT, self.pid)

    def _on_join_request(self, _src: str, pid: str) -> None:
        self.join(pid)

    def set_state_handlers(self, provider: StateProvider, installer: StateInstaller) -> None:
        self._state_provider = provider
        self._state_installer = installer

    # ------------------------------------------------------------------
    # View installation effects
    # ------------------------------------------------------------------
    def _on_new_view(self, view: View) -> None:
        self._suspects = {s for s in self._suspects if s in view}
        joined = [p for p in self._pending_joins if p in view]
        self._pending_joins -= set(joined)
        if joined and view.primary == self.pid:
            for pid in joined:
                self.schedule(0.0, self._send_state, pid)

    def _send_state(self, joiner: str) -> None:
        self.world.metrics.counters.inc("tgm.state_transfers")
        self.trace("state_transfer", to=joiner)
        self.channel.send(joiner, STATE_PORT, self._state_provider())

    def _on_state(self, _src: str, state: Any) -> None:
        self._state_installer(state)

    def _on_excluded(self) -> None:
        """Isis semantics: a process that sees itself excluded dies."""
        self.world.metrics.counters.inc("tgm.self_kills")
        self.trace("self_kill")
        self.process.crash()
