"""The Isis architecture (Fig. 1): Membership → View Synchrony → Atomic
Broadcast, bottom-up.

Layering (Section 2.1.1):

* the **group membership** layer maintains the member list, handles
  joins/leaves and *excludes suspected processes* (suspicion and
  exclusion are one and the same — the coupling of Section 2.3.1);
* the **view synchrony** layer gives broadcast semantics relative to
  views (flush protocol, sending view delivery — senders block during
  view changes);
* **atomic broadcast** on top is a fixed sequencer over the
  view-synchronous broadcast; it blocks when the sequencer crashes until
  the membership below installs a new view (Section 2.3.2).
"""

from __future__ import annotations

from typing import Any

from repro.abcast.sequencer import SequencerAtomicBroadcast
from repro.fd.heartbeat import HeartbeatFailureDetector
from repro.membership.view import View
from repro.net.message import AppMessage
from repro.net.reliable import ReliableChannel
from repro.sim.process import Process
from repro.traditional.gm_membership import TraditionalMembership
from repro.traditional.view_synchrony import FlushViewSynchrony


class IsisStack:
    """All Fig. 1 layers of one process.

    ``exclusion_timeout`` is the SINGLE failure-detection timeout: it
    controls both how fast crashes are detected and how easily correct
    processes get excluded — the trade-off of Section 4.3.
    """

    def __init__(
        self,
        process: Process,
        initial_members: list[str],
        *,
        exclusion_timeout: float = 500.0,
        is_member: bool = True,
    ) -> None:
        self.process = process
        initial_view = View.initial(initial_members) if is_member else None

        self.channel = ReliableChannel(process)
        self.vs = FlushViewSynchrony(process, self.channel, initial_view)
        self.fd = HeartbeatFailureDetector(process, self.vs.current_members)
        self.gm = TraditionalMembership(
            process, self.channel, self.vs, self.fd, exclusion_timeout=exclusion_timeout
        )
        self.abcast = SequencerAtomicBroadcast(
            process, self.channel, self.vs, self.vs.current_view
        )
        self.vs.on_new_view(self.abcast.on_view_change)

    # ------------------------------------------------------------------
    # Application interface
    # ------------------------------------------------------------------
    @property
    def pid(self) -> str:
        return self.process.pid

    def abcast_payload(self, payload: Any) -> AppMessage:
        message = self.process.msg_ids.message(payload)
        self.abcast.abcast(message)
        return message

    def view(self) -> View | None:
        return self.vs.current_view()

    def delivered_payloads(self) -> list[Any]:
        return [m.payload for m in self.abcast.delivered_log]

    #: Layer inventory used by the Fig. 1 bench and the complexity bench:
    #: which layers of this stack solve an ordering problem.
    LAYERS = ["membership", "view synchrony", "atomic broadcast"]
    ORDERING_SOLVERS = [
        "membership (orders views)",
        "view synchrony (orders messages vs. view changes)",
        "atomic broadcast (orders messages)",
    ]
