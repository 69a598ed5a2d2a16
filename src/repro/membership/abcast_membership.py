"""Group membership built ON TOP OF atomic broadcast (Section 3.1.1).

The defining inversion of the paper's new architecture: join and remove
requests are simply atomically broadcast; since every process a-delivers
them in the same total order, every process installs the same sequence of
views — the ordering problem for views is solved by the component that
already solves it for messages, not by a second protocol.

Operations (Fig. 9): ``join(pid)``, ``remove(pid)`` (a process may remove
itself, i.e. leave), ``new_view`` / ``init_view`` callbacks upward.

State transfer — how a snapshot is cut, ordered and merged — is decided
here alone.  The head of the new view sends a joiner the view plus one
**section** per registered ``(cut, install)`` pair: atomic broadcast
(registered here), what the stack adds, the application's state on top.
The receiver **refuses**, before anything is touched, a snapshot whose
view is not newer than the last view it installed itself (a sponsor that
is behind cannot roll a member back); else it puts the view in place
silently, so every section finds the group known, and installs the
sections **top-down**, last registered first: a layer resumes only after
everything it delivers *into* holds its state.  This component's own
resumption, announcing the view, comes immediately before atomic
broadcast's, which may deliver from inside its install what was decided
beyond the cut — the next view, or a message the application must not
see before the view it is delivered in.  Installs only **add** (delivered
sets joined, watermarks raised).  The joiner participates in the group
from the snapshot position onward.

Re-admission (Section 4.3): a JOIN for a pid that is *still in the
view* — a crashed member that recovered before the monitoring component
excluded it, or a wrongly suspected process that was restarted — is not
a membership change at all.  The member it asks simply sends the fresh
incarnation a snapshot; no view change is installed, no exclusion ever
happens.  This is exactly the behaviour the paper argues the decoupling
of monitoring from membership buys.

Join requests are retried, round-robin over the live peers, until a view
containing the requester is installed.  Together with the direct answer
above this keeps a join from depending on any single process: if the
sponsor named at the a-delivery of the JOIN crashes before its snapshot
leaves, the joiner is in the view without state — a member that cannot
vote — and the next peer it asks hands it the snapshot instead of
ordering a re-admission the weakened group may be unable to decide.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.abcast.consensus_based import ConsensusAtomicBroadcast
from repro.membership.view import View
from repro.net.message import AppMessage
from repro.net.reliable import ReliableChannel
from repro.sim.process import Component, Process

CTL_CLASS = "_gm.ctl"
STATE_PORT = "gm.state"
JOIN_REQ_PORT = "gm.join_req"
#: Interval (ms) between join-request retries.
REJOIN_INTERVAL = 250.0

NewViewFn = Callable[[View], None]
StateProvider = Callable[[], Any]
StateInstaller = Callable[[Any], None]


class AbcastGroupMembership(Component):
    """Primary-partition membership as a client of atomic broadcast."""

    def __init__(
        self,
        process: Process,
        channel: ReliableChannel,
        abcast: ConsensusAtomicBroadcast,
        initial_view: View | None,
    ) -> None:
        super().__init__(process, "gm")
        self.channel = channel
        self.abcast = abcast
        self.view = initial_view
        self._view_callbacks: list[NewViewFn] = []
        self._removal_callbacks: list[Callable[[str], None]] = []
        #: Snapshot sections ``name -> (cut, install)`` in registration
        #: (= build) order; installed in reverse.
        self._sections: dict[str, tuple[StateProvider, StateInstaller]] = {}
        self.view_history: list[View] = [] if initial_view is None else [initial_view]
        self._requested: set[tuple[str, str, int]] = set()
        self._join_attempts = 0
        #: View id at which each current member (last) joined.  Initial
        #: members joined at the initial view.  Used to fence *stale
        #: removes*: a remove proposed against an earlier membership
        #: session of a pid (before it was removed and rejoined) must
        #: not evict the rejoined successor.  Derived purely from the
        #: delivered total order, so identical at every process.
        self._join_view: dict[str, int] = (
            {} if initial_view is None
            else {pid: initial_view.id for pid in initial_view.members}
        )
        self.register_port(STATE_PORT, self._on_state)
        self.register_port(JOIN_REQ_PORT, self._on_join_request)
        abcast.on_adeliver(self._on_adeliver)
        self.register_snapshot("abcast", abcast.snapshot, self._resume)

    # ------------------------------------------------------------------
    # Providers used by the components below us
    # ------------------------------------------------------------------
    def current_members(self) -> list[str]:
        if self.view is None:
            return []
        return self.view.member_list()

    def current_view(self) -> View | None:
        return self.view

    # ------------------------------------------------------------------
    # Client interface (Fig. 9: join / remove / new_view)
    # ------------------------------------------------------------------
    def on_new_view(self, callback: NewViewFn) -> None:
        self._view_callbacks.append(callback)

    def on_removal(self, callback: Callable[[str], None]) -> None:
        """Called with the removed pid whenever a REMOVE takes effect."""
        self._removal_callbacks.append(callback)

    def register_snapshot(
        self, name: str, provider: StateProvider, installer: StateInstaller
    ) -> None:
        """Add a section to the state-transfer snapshot: ``provider()``
        cuts it at the sponsor, ``installer(cut)`` merges it at the joiner
        (``None`` from a sponsor without that section).  Register in build
        order — sections are installed in reverse, the group already known."""
        self._sections[name] = (provider, installer)

    def set_state_handlers(self, provider: StateProvider, installer: StateInstaller) -> None:
        """The application's section (Fig. 9's state transfer hooks)."""
        self.register_snapshot("app", provider, installer)

    def join(self, pid: str) -> None:
        """Propose adding ``pid`` to the group (ordered via abcast)."""
        self._broadcast_ctl("join", pid)

    def remove(self, pid: str) -> None:
        """Propose removing ``pid`` from the group (exclusion or leave)."""
        self._broadcast_ctl("remove", pid)

    def request_join(self, seed: str | None = None) -> None:
        """Ask to be admitted, until a view containing us is installed.

        The first request goes to ``seed`` (a current member) when one
        is named; every ``REJOIN_INTERVAL`` ms after that the next live
        peer in turn is asked.
        """
        if self.pid in self.current_members():
            return
        if seed is None:
            peers = [pid for pid in self.world.alive() if pid != self.pid]
            if peers:
                seed = peers[self._join_attempts % len(peers)]
        if seed is not None:
            self._join_attempts += 1
            self.channel.send(seed, JOIN_REQ_PORT, self.pid)
        self.schedule(REJOIN_INTERVAL, self.request_join)

    def _broadcast_ctl(self, op: str, pid: str) -> None:
        if self.view is None:
            return
        key = (op, pid, self.view.id)
        if key in self._requested:
            return  # already proposed for this view; avoid duplicate traffic
        self._requested.add(key)
        self.world.metrics.counters.inc(f"gm.{op}_requests")
        message = AppMessage(
            self.process.msg_ids.next(), self.pid, (op, pid, self.view.id), CTL_CLASS
        )
        self.abcast.abcast(message)

    # ------------------------------------------------------------------
    # View installation (driven by the abcast total order)
    # ------------------------------------------------------------------
    def _on_adeliver(self, message: AppMessage) -> None:
        if message.msg_class != CTL_CLASS or self.view is None:
            return
        op, pid, proposal_view = message.payload
        # The request is no longer in flight: allow this process to
        # propose the same op again later (e.g. sponsoring a second
        # re-admission of a twice-recovered process).
        self._requested = {k for k in self._requested if (k[0], k[1]) != (op, pid)}
        if op == "remove" and proposal_view < self._join_view.get(pid, 0):
            # Stale remove: it was proposed before ``pid``'s current
            # membership session began (the pid was removed and rejoined
            # in between).  Honouring it would evict the fresh member on
            # the strength of evidence about its dead predecessor.
            self.world.metrics.counters.inc("gm.stale_removes_ignored")
            self.trace("stale_remove_ignored", member=pid, proposal_view=proposal_view)
            return
        if op == "join" and pid not in self.view:
            self._install(self.view.with_joined(pid))
            self._join_view[pid] = self.view.id
            if self._snapshot_sponsor(pid) == self.pid:
                # Defer the snapshot to the end of the current event: the
                # atomic broadcast is still mid-delivery here, so its
                # instance counter does not yet include this batch.
                self.schedule(0.0, self._send_state, pid)
        elif op == "remove" and pid in self.view:
            new_view = self.view.without(pid)
            self._install(new_view)
            self._join_view.pop(pid, None)
            for callback in self._removal_callbacks:
                callback(pid)

    def _snapshot_sponsor(self, joiner: str) -> str | None:
        """First member of the new view that is not the joiner itself
        (which may sort first).  Derived from the view at the a-delivery
        of the join op, so every process picks the same one.
        """
        for member in self.view.members:
            if member != joiner:
                return member
        return None

    def _install(self, view: View) -> None:
        self.view = view
        self.view_history.append(view)
        self.world.metrics.counters.inc("gm.views_installed")
        self.trace("new_view", view=str(view))
        spans = self.spans
        if spans.enabled:
            spans.point(self.pid, "membership", "view_install", "proc", self.now).note(
                view=str(view)
            )
        for callback in self._view_callbacks:
            callback(view)

    # ------------------------------------------------------------------
    # Join sponsorship + state transfer
    # ------------------------------------------------------------------
    def _on_join_request(self, _src: str, pid: str) -> None:
        if pid in self.current_members():
            # Re-admission, or a joiner whose sponsor died: the pid is a
            # member already, so there is nothing to order.
            self.world.metrics.counters.inc("gm.readmissions")
            self.trace("readmit", member=pid)
            self._send_state(pid)
        else:
            self.join(pid)

    def _send_state(self, joiner: str) -> None:
        snapshot = {
            "view": self.view,
            "join_view": dict(self._join_view),
            "sections": {name: cut() for name, (cut, _) in self._sections.items()},
        }
        self.world.metrics.counters.inc("gm.state_transfers")
        self.trace("state_transfer", to=joiner)
        self.channel.send(joiner, STATE_PORT, snapshot)

    def _on_state(self, _src: str, snapshot: dict) -> None:
        view = snapshot["view"]
        if self.view is not None and self.pid in self.view:
            return  # a member already: the answer to a retried request
        if self.view is not None and view.id <= self.view.id:
            # The sponsor is behind what this process installed itself.
            self.world.metrics.counters.inc("gm.stale_snapshots_refused")
            self.trace("stale_snapshot_refused", view=str(view), own=str(self.view))
            return
        self.view, self._join_view = view, dict(snapshot["join_view"])
        for name, (_, install) in reversed(self._sections.items()):
            install(snapshot["sections"].get(name))

    def _resume(self, cut: dict) -> None:
        """This component's place in the install order: announce the view
        put in place, then let atomic broadcast deliver into it."""
        self._install(self.view)
        self.abcast.install_snapshot(cut)
