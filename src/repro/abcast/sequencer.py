"""Sequencer-based atomic broadcast (Isis / Phoenix and RMP / Totem).

Section 2.3.2 of the paper: "In Isis and Phoenix, atomic broadcast is
implemented using a fixed sequencer process.  In the normal mode, the
sequencer attaches sequence numbers to messages ...  However, the
protocol blocks if the sequencer crashes" — it depends on the group
membership *below* it to install a new view (and therefore a new
sequencer) before ordering can resume.  This dependency is exactly what
the new architecture removes.

In Défago, Schiper and Urbán's taxonomy of total-order protocols this is
the *fixed* sequencer and the RMP / Totem token ring
(:mod:`repro.abcast.token_ring`) the *moving* one.  Both are a
:class:`SequencerCore` (ordered slots, pending store, in-order delivery)
and differ only in who assigns a sequence number and how they recover
when that process fails.

The fixed sequencer runs over any
:class:`~repro.abcast.interfaces.TaggedBroadcast` — view-synchronous
broadcast in the Isis stack (so that a view change leaves all survivors
with the same set of ORDER messages), plain reliable broadcast elsewhere.

Normal mode:

* ``abcast(m)``: buffer ``m`` as pending and forward it to the current
  sequencer (the head of the current view).
* sequencer: assign the next sequence number and broadcast
  ``ORDER(seq, m)``.
* everyone: deliver ORDER messages in sequence-number order.

Failure mode (driven by the membership layer below via
:meth:`SequencerAtomicBroadcast.on_view_change`): every process
re-forwards its pending messages to the new sequencer; the new sequencer
continues numbering after the highest sequence number it has seen, and
fills any holes left by the crash with no-ops (safe because the
view-synchronous flush below has equalised the ORDER sets of all
survivors).
"""

from __future__ import annotations

from typing import Callable

from repro.abcast.interfaces import TaggedBroadcast
from repro.membership.view import View
from repro.broadcast.delivered import DeliveredIds
from repro.net.message import AppMessage, MsgId
from repro.net.reliable import ReliableChannel
from repro.sim.process import Component, Process

ORDER_TAG = "seq.order"
FWD_PORT = "seq.fwd"

AdeliverFn = Callable[[AppMessage], None]
ViewProvider = Callable[[], View]


class SequencerCore(Component):
    """Ordered slots and in-order delivery of a sequencer protocol.

    A subclass decides who assigns sequence numbers and hands every
    ``ORDER(seq, m)`` it learns of to :meth:`_order`; ``m`` is None for a
    no-op that fills a hole.  Slot ``seq`` is delivered once every slot
    below it is filled, each message at most once.
    """

    def __init__(
        self, process: Process, channel: ReliableChannel, view_provider: ViewProvider
    ) -> None:
        super().__init__(process, "abcast")
        self.channel = channel
        self.view_provider = view_provider
        #: Broadcast here, not yet delivered.
        self._pending: dict[MsgId, AppMessage] = {}
        self._ordered: dict[int, AppMessage | None] = {}
        self._ordered_ids: set[MsgId] = set()
        self._next_deliver = 0
        self._delivered = DeliveredIds()
        self._callbacks: list[AdeliverFn] = []
        self.delivered_log: list[AppMessage] = []

    def on_adeliver(self, callback: AdeliverFn) -> None:
        self._callbacks.append(callback)

    def abcast(self, message: AppMessage) -> None:
        self.world.metrics.counters.inc("abcast.broadcasts")
        self.world.metrics.latency.begin("abcast", message.id, self.now)
        self._pending[message.id] = message

    def _is_ordered(self, mid: MsgId) -> bool:
        return mid in self._ordered_ids or mid in self._delivered

    def _fill(self, seq: int, message: AppMessage | None) -> bool:
        """Store ``message`` in slot ``seq``; False if the slot is taken."""
        if seq in self._ordered:
            return False
        self._ordered[seq] = message
        if message is not None:
            self._ordered_ids.add(message.id)
        return True

    def _order(self, seq: int, message: AppMessage | None) -> None:
        if self._fill(seq, message):
            self._try_deliver()

    def _try_deliver(self) -> None:
        while self._next_deliver in self._ordered:
            message = self._ordered[self._next_deliver]
            self._next_deliver += 1
            if message is None or message.id in self._delivered:
                continue
            self._delivered.add(message.id)
            self._pending.pop(message.id, None)
            self.world.metrics.counters.inc("abcast.delivered")
            self.world.metrics.latency.end("abcast", message.id, self.now)
            self.delivered_log.append(message)
            self.trace("adeliver", mid=str(message.id), seq=self._next_deliver - 1)
            for callback in self._callbacks:
                callback(message)
            if self.process.crashed:
                return


class SequencerAtomicBroadcast(SequencerCore):
    """Fixed-sequencer total order over a tagged broadcast service."""

    def __init__(
        self,
        process: Process,
        channel: ReliableChannel,
        broadcast: TaggedBroadcast,
        view_provider: ViewProvider,
    ) -> None:
        super().__init__(process, channel, view_provider)
        self.broadcast = broadcast
        self._next_assign = 0
        self.register_port(FWD_PORT, self._on_forward)
        broadcast.register(ORDER_TAG, self._on_order)

    def abcast(self, message: AppMessage) -> None:
        super().abcast(message)
        self.channel.send(self.sequencer(), FWD_PORT, message)

    def sequencer(self) -> str:
        return self.view_provider().primary

    @property
    def is_sequencer(self) -> bool:
        return self.sequencer() == self.pid

    # ------------------------------------------------------------------
    # Sequencer side
    # ------------------------------------------------------------------
    def _on_forward(self, _src: str, message: AppMessage) -> None:
        if not self.is_sequencer:
            # Stale forward (view changed while in flight): the sender
            # will re-forward on its own view change.
            return
        if self._is_ordered(message.id):
            return
        seq = self._next_assign
        self._next_assign += 1
        self._ordered_ids.add(message.id)
        self.world.metrics.counters.inc("abcast.sequenced")
        self.broadcast.bcast(ORDER_TAG, (seq, message))

    def _on_order(self, _origin: str, payload: tuple, _mid: MsgId) -> None:
        seq, message = payload
        self._next_assign = max(self._next_assign, seq + 1)
        self._order(seq, message)

    # ------------------------------------------------------------------
    # Failure mode: membership installed a new view below us
    # ------------------------------------------------------------------
    def on_view_change(self, view: View) -> None:
        """Switch to the new sequencer; re-forward pending messages."""
        if self.pid not in view:
            return
        if view.primary == self.pid:
            # New sequencer: continue after everything seen, and fill any
            # holes (safe after the view-synchronous flush below us).
            max_seen = max(self._ordered, default=-1)
            for missing in range(self._next_deliver, max_seen):
                if missing not in self._ordered:
                    self.broadcast.bcast(ORDER_TAG, (missing, None))
            self._next_assign = max(self._next_assign, max_seen + 1)
        for mid in sorted(self._pending):
            if not self._is_ordered(mid):
                self.channel.send(view.primary, FWD_PORT, self._pending[mid])
