"""The RMP architecture (Fig. 3).

Section 2.1.3: atomic broadcast at the bottom (Chang–Maxemchuk-style
rotating token); *fault-free membership* implemented USING atomic
broadcast (joins/leaves are ordered like any message); *fault-tolerant
membership + view synchrony* on top, based on a two-phase commit among
the survivors.  The paper notes RMP partially anticipates the new
architecture — membership over abcast — but only in the failure-free
case, because its token protocol still blocks on a crash and needs the
fault-tolerant membership layer to recover.
"""

from __future__ import annotations

from typing import Any

from repro.abcast.token_ring import TokenRingAtomicBroadcast
from repro.fd.heartbeat import HeartbeatFailureDetector
from repro.membership.view import View
from repro.net.message import AppMessage
from repro.net.reliable import ReliableChannel
from repro.sim.process import Process
from repro.traditional.ring_membership import RingMembership


class RMPStack:
    """All Fig. 3 layers of one process."""

    MODE = "rmp"
    LAYERS = ["atomic broadcast (token)", "fault-free membership", "fault-tolerant membership + VS"]
    ORDERING_SOLVERS = [
        "atomic broadcast (orders messages and fault-free joins/leaves)",
        "fault-tolerant membership (orders view changes on failures)",
    ]

    def __init__(
        self,
        process: Process,
        initial_members: list[str],
        *,
        exclusion_timeout: float = 500.0,
        max_orders_per_token: int = 10,
        is_member: bool = True,
    ) -> None:
        self.process = process
        initial_view = View.initial(initial_members) if is_member else None

        self.channel = ReliableChannel(process)
        self.abcast = TokenRingAtomicBroadcast(
            process,
            self.channel,
            lambda: self.membership.ring_view(),
            max_orders_per_token=max_orders_per_token,
        )
        self.fd = HeartbeatFailureDetector(process, lambda: self.membership.current_members())
        self.membership = RingMembership(
            process,
            self.channel,
            self.abcast,
            self.fd,
            initial_view,
            mode=self.MODE,
            exclusion_timeout=exclusion_timeout,
        )

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
        return [
            m.payload for m in self.abcast.delivered_log if not m.msg_class.startswith("_")
        ]
