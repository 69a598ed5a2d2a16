"""Rotating-token atomic broadcast (RMP / Totem style).

Section 2.3.2 of the paper: "In RMP and Totem, processes form a logical
ring and atomic broadcast is implemented using a rotating token ...  If
one process crashes, the ring is broken, and the token may be lost.  The
failure mode is needed to recover from this situation."  This is the
*moving* sequencer; its slot store and delivery loop are the fixed
sequencer's (:class:`~repro.abcast.sequencer.SequencerCore`).

Normal mode: the token carries the next sequence number around the ring
(ring = current view order).  Only the token holder orders messages: it
broadcasts ``ORDER(seq, m)`` for each locally pending message, then
passes ``TOKEN(generation, next_seq)`` to its ring successor.  Everybody
delivers in sequence-number order.  The *generation* counter is bumped
only by ring reformation, so fault-free membership changes (joins/leaves
ordered through the ring itself, as in RMP) keep the circulating token
valid; a member that receives the token after leaving forwards it to the
head of the current view.

Failure mode: the token component itself does *nothing* about crashes —
exactly as in the paper, it blocks.  The membership/recovery layers of
the RMP and Totem stacks detect the failure, run their own reformation
protocol (two-phase commit among survivors for RMP, reformation +
recovery for Totem), and call :meth:`install_recovery` with the merged
message history and a regenerated token.  Tokens from old ring epochs
are discarded.
"""

from __future__ import annotations

from repro.abcast.sequencer import SequencerCore, ViewProvider
from repro.membership.view import View
from repro.broadcast.delivered import DeliveredIds
from repro.net.message import AppMessage
from repro.net.reliable import ReliableChannel
from repro.sim.process import Process

TOKEN_PORT = "tok"
ORDER_PORT = "tok.order"


class TokenRingAtomicBroadcast(SequencerCore):
    """Token-ring total order; reformation is driven from above."""

    def __init__(
        self,
        process: Process,
        channel: ReliableChannel,
        view_provider: ViewProvider,
        max_orders_per_token: int,
    ) -> None:
        super().__init__(process, channel, view_provider)
        self.max_orders_per_token = max_orders_per_token
        self._frozen = False
        self.generation = 0
        self._last_token_seen = 0.0
        self.register_port(TOKEN_PORT, self._on_token)
        self.register_port(ORDER_PORT, lambda _src, payload: self._order(*payload))

    def start(self) -> None:
        # The head of the initial view creates the token.
        view = self.view_provider()
        if view.members and view.primary == self.pid:
            self.schedule(0.0, self._hold_token, 0)

    def abcast(self, message: AppMessage) -> None:
        super().abcast(message)
        view = self.view_provider()
        if len(view) == 1 and view.primary == self.pid and not self._frozen:
            # Sole member holds the token implicitly.
            self.schedule(0.0, self._hold_token, max(self._ordered, default=-1) + 1)

    # ------------------------------------------------------------------
    # Normal mode: token rotation
    # ------------------------------------------------------------------
    def _on_token(self, _src: str, payload: tuple) -> None:
        generation, next_seq = payload
        view = self.view_provider()
        if self._frozen or generation != self.generation:
            self.trace("stale_token", token_gen=generation, gen=self.generation)
            return
        if self.pid not in view:
            # We left the group fault-free but the token was already in
            # flight to us; hand it to the head of the current ring.
            if view.members:
                self.channel.send(view.primary, TOKEN_PORT, payload)
            return
        self._hold_token(next_seq)

    def _hold_token(self, next_seq: int) -> None:
        self._last_token_seen = self.now
        view = self.view_provider()
        seq = max(next_seq, max(self._ordered, default=-1) + 1)
        budget = self.max_orders_per_token
        for mid in sorted(self._pending):
            if budget == 0:
                break
            if self._is_ordered(mid):
                continue
            message = self._pending[mid]
            self.world.metrics.counters.inc("abcast.sequenced")
            for member in view.members:
                self.channel.send(member, ORDER_PORT, (seq, message))
            seq += 1
            budget -= 1
        if len(view) == 1:
            # Sole member: the token is held implicitly; abcast() re-arms.
            return
        successor = view.successor(self.pid)
        self.world.metrics.counters.inc("abcast.token_passes")
        self.channel.send(successor, TOKEN_PORT, (self.generation, seq))

    # ------------------------------------------------------------------
    # Failure mode hooks (called by the RMP/Totem membership layers)
    # ------------------------------------------------------------------
    def freeze(self) -> None:
        """Stop ordering while the ring is being reformed."""
        self._frozen = True

    def state_summary(self) -> tuple[dict[int, AppMessage | None], int]:
        """(ordered map, max seq seen) — input to the recovery protocol."""
        return dict(self._ordered), max(self._ordered, default=-1)

    @property
    def last_token_seen(self) -> float:
        return self._last_token_seen

    def membership_snapshot(self) -> dict:
        """State a fault-free joiner needs (RMP-style join via abcast)."""
        return {
            "ordered": dict(self._ordered),
            "next_deliver": self._next_deliver,
            "delivered": set(self._delivered),
            "generation": self.generation,
        }

    def install_membership_snapshot(self, snapshot: dict) -> None:
        self._ordered = dict(snapshot["ordered"])
        self._ordered_ids = {m.id for m in self._ordered.values() if m is not None}
        self._next_deliver = snapshot["next_deliver"]
        self._delivered = DeliveredIds(snapshot["delivered"])
        self.generation = snapshot["generation"]
        self._pending = {
            mid: msg for mid, msg in self._pending.items() if mid not in self._delivered
        }

    def install_recovery(
        self,
        merged: dict[int, AppMessage | None],
        view: View,
        next_seq: int,
        generation: int,
    ) -> None:
        """Adopt the merged history of the survivors and resume.

        ``merged`` is the union of the survivors' ordered maps computed
        by the reformation protocol; holes below ``next_seq`` are filled
        with no-ops (every survivor sees the same merged map, so this is
        consistent).  The head of the new ring regenerates the token at
        the new ``generation``.
        """
        for seq, message in merged.items():
            self._fill(seq, message)
        for seq in range(self._next_deliver, next_seq):
            self._fill(seq, None)
        self._try_deliver()
        self._frozen = False
        self.generation = generation
        self._last_token_seen = self.now
        if view.members and view.primary == self.pid:
            self._hold_token(next_seq)
