"""View-synchronous broadcast (traditional stacks).

This is the classic layer the paper's new architecture gets rid of
(Section 3.1.2).  It implements *sending view delivery* (Section 4.4):
messages broadcast in view ``v`` are delivered in view ``v`` at every
process that installs ``v+1``; to guarantee that without discarding
messages, the group is **blocked** — senders must stop — while the next
view is being decided.  The blocking window is measured (``vs.blocked``
interval metric) because it is precisely the responsiveness cost the
paper's Section 4.4 argues against.

:class:`ViewSynchrony` is the one implementation of it, shared by Isis and
Phoenix: broadcast in the current view, queue while blocked, hold
messages of views not yet installed, deliver the merged set of the old
view, install the next one.  *How* the next view and its merged set are
decided is left to a subclass — there are two:

* :class:`FlushViewSynchrony` (Isis), the coordinator-driven flush below;
* ``PhoenixViewMembership`` (:mod:`repro.traditional.phoenix`), a gather
  round whose outcome consensus decides.

Flush protocol (coordinator-driven):

1. the coordinator broadcasts ``FLUSH(view_id, new_members)``;
2. every member blocks sending, and replies ``FLUSH_OK`` with the set of
   messages it has delivered/received in the current view (its
   "unstable" set);
3. the coordinator collects ``FLUSH_OK`` from all surviving members of
   the new view, merges the sets, and broadcasts
   ``VIEW(new_view, merged set)``;
4. everyone delivers the messages of the merged set it is missing
   (still in the old view — sending view delivery), installs the new
   view and unblocks; queued outgoing messages are re-sent in the new
   view.

A process that finds itself outside the new view invokes the exclusion
callback (Isis semantics: the wrongly excluded process is killed and must
re-join with a state transfer — Section 4.3's false-suspicion cost).

Known limitation (documented, shared with the real systems' common-case
behaviour): two *live* coordinators concurrently completing flushes for
the same view id can install inconsistent views; the traditional
membership layer avoids this by routing all change requests to the
deterministic lowest-ranked unsuspected coordinator.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.membership.view import View
from repro.broadcast.delivered import DeliveredIds
from repro.net.message import MsgId
from repro.net.reliable import ReliableChannel
from repro.sim.process import Component, Process

FLUSH_PORT = "vs.flush"
FLUSH_OK_PORT = "vs.flush_ok"
VIEW_PORT = "vs.view"

DeliverFn = Callable[[str, Any, MsgId], None]
NewViewFn = Callable[[View], None]
ExcludedFn = Callable[[], None]
#: What a view's members received in it: ``{mid: (origin, tag, payload)}``.
Received = dict[MsgId, tuple[str, str, Any]]


class ViewSynchrony(Component):
    """View-synchronous tagged broadcast (TaggedBroadcast protocol).

    ``name`` is the component's name and the prefix of its message port
    (``<name>.msg``); counters are ``vs.*`` whatever the name.
    """

    name = "vs"

    def __init__(
        self, process: Process, channel: ReliableChannel, initial_view: View | None
    ) -> None:
        super().__init__(process, self.name)
        self.channel = channel
        self.view = initial_view
        self.blocked = False
        self.msg_port = f"{self.name}.msg"
        self._handlers: dict[str, DeliverFn] = {}
        self._received: Received = {}
        self._delivered_ids = DeliveredIds()
        self._queued_out: list[tuple[MsgId, str, Any]] = []
        self._future_msgs: list[tuple[int, MsgId, str, str, Any]] = []
        self._view_callbacks: list[NewViewFn] = []
        self.view_history: list[View] = [] if initial_view is None else [initial_view]
        self.register_port(self.msg_port, self._on_msg)

    # ------------------------------------------------------------------
    # TaggedBroadcast interface
    # ------------------------------------------------------------------
    def register(self, tag: str, handler: DeliverFn) -> None:
        if tag in self._handlers:
            raise ValueError(f"duplicate {self.name} tag {tag!r} on {self.pid}")
        self._handlers[tag] = handler

    def bcast(self, tag: str, payload: Any) -> MsgId:
        """View-synchronous broadcast to the current view.

        While a view change is running the call is *queued* (the sender
        is blocked — sending view delivery); the message goes out in the
        next view.
        """
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
        self.channel.send_to_all(self.view.member_list(), self.msg_port, packet)

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def _on_msg(self, _src: str, packet: tuple) -> None:
        mid, origin, view_id, tag, payload = packet
        if self.view is None:
            return
        if view_id == self.view.id:
            self._deliver(mid, origin, tag, payload)
        elif view_id > self.view.id:
            # We have not installed the sender's view yet; hold it.
            self._future_msgs.append((view_id, mid, origin, tag, payload))
        # Older views: the view change already accounted for (or discarded) it.

    def _deliver(self, mid: MsgId, origin: str, tag: str, payload: Any) -> None:
        if mid in self._delivered_ids:
            return
        self._delivered_ids.add(mid)
        self._received[mid] = (origin, tag, payload)
        handler = self._handlers.get(tag)
        self.world.metrics.counters.inc("vs.delivered")
        if handler is not None:
            handler(origin, payload, mid)

    def _deliver_merged(self, merged: Received) -> None:
        """Sending view delivery: what anybody received in the view that
        ends is delivered in it, before the next view is installed."""
        for mid in sorted(merged):
            self._deliver(mid, *merged[mid])

    # ------------------------------------------------------------------
    # View change
    # ------------------------------------------------------------------
    def _block(self) -> None:
        if not self.blocked:
            self.blocked = True
            self.world.metrics.counters.inc("vs.blocks")
            self.world.metrics.latency.begin("vs.blocked", (self.pid, self.view.id), self.now)
            self.trace("blocked", view=self.view.id)

    def _install(self, new_view: View) -> None:
        old_view = self.view
        self.view = new_view
        self.view_history.append(new_view)
        self._received = {}
        if old_view is not None:
            # The channel can drop buffers for processes no longer in the view.
            for gone in set(old_view.members) - set(new_view.members):
                self.channel.discard(gone)
        if self.blocked:
            self.blocked = False
            self.world.metrics.latency.end("vs.blocked", (self.pid, old_view.id), self.now)
        self.world.metrics.counters.inc("vs.views_installed")
        self.trace("new_view", view=str(new_view))
        # Release messages queued while blocked (they carry the new view id).
        queued, self._queued_out = self._queued_out, []
        if self.pid in new_view:
            for mid, tag, payload in queued:
                self.world.metrics.latency.end("vs.send_delay", mid, self.now)
                self._send(mid, tag, payload)
        # Process messages that arrived for this view early.
        ready = [m for m in self._future_msgs if m[0] == new_view.id]
        self._future_msgs = [m for m in self._future_msgs if m[0] > new_view.id]
        for _view_id, mid, origin, tag, payload in ready:
            self._deliver(mid, origin, tag, payload)
        for callback in self._view_callbacks:
            callback(new_view)

    # ------------------------------------------------------------------
    # Callbacks
    # ------------------------------------------------------------------
    def on_new_view(self, callback: NewViewFn) -> None:
        self._view_callbacks.append(callback)

    def current_members(self) -> list[str]:
        return [] if self.view is None else self.view.member_list()

    def current_view(self) -> View | None:
        return self.view


class FlushViewSynchrony(ViewSynchrony):
    """Isis: a coordinator's flush decides the next view."""

    def __init__(
        self, process: Process, channel: ReliableChannel, initial_view: View | None
    ) -> None:
        super().__init__(process, channel, initial_view)
        self._collecting: dict[tuple, dict[str, Received]] = {}
        self._excluded_callbacks: list[ExcludedFn] = []
        self.register_port(FLUSH_PORT, self._on_flush)
        self.register_port(FLUSH_OK_PORT, self._on_flush_ok)
        self.register_port(VIEW_PORT, self._on_view)

    def initiate_view_change(self, new_members: list[str]) -> None:
        """Run the flush as coordinator; install ``new_members`` next.

        Called by the traditional membership layer on the deterministic
        coordinator.  Survivor order is preserved; joiners are appended.
        """
        if self.view is None:
            return
        key = (self.view.id, tuple(new_members))
        if key in self._collecting:
            return
        self._collecting[key] = {}
        self.world.metrics.counters.inc("vs.flushes_started")
        self.trace("flush_start", new_members=new_members)
        packet = (self.view.id, new_members)
        # Our own FLUSH_OK is produced by the loopback FLUSH message.
        self.channel.send_to_all(self.view.member_list(), FLUSH_PORT, packet)

    def _on_flush(self, src: str, packet: tuple) -> None:
        old_view_id, new_members = packet
        if self.view is None or old_view_id != self.view.id:
            return
        self._block()
        reply = (old_view_id, tuple(new_members), dict(self._received))
        self.channel.send(src, FLUSH_OK_PORT, reply)

    def _on_flush_ok(self, src: str, reply: tuple) -> None:
        old_view_id, new_members, received = reply
        if self.view is None or old_view_id != self.view.id:
            return
        key = (old_view_id, tuple(new_members))
        collecting = self._collecting.get(key)
        if collecting is None:
            return
        collecting[src] = received
        survivors = [m for m in self.view.members if m in new_members]
        if all(m in collecting for m in survivors):
            merged: Received = {}
            for received_map in collecting.values():
                merged.update(received_map)
            ordered = survivors + [m for m in new_members if m not in survivors]
            new_view = View(self.view.id + 1, tuple(ordered))
            self.trace("flush_done", view=str(new_view), merged=len(merged))
            targets = sorted(set(self.view.member_list()) | set(new_members))
            self.channel.send_to_all(targets, VIEW_PORT, (new_view, merged))
            del self._collecting[key]

    def _on_view(self, _src: str, packet: tuple) -> None:
        new_view, merged = packet
        if self.view is None:
            # Joiner: adopt the view; old-view messages do not concern us.
            if self.pid in new_view:
                self._install(new_view)
            return
        if new_view.id != self.view.id + 1:
            return  # stale or duplicate
        self._deliver_merged(merged)
        if self.pid not in new_view:
            self.trace("excluded", view=str(new_view))
            self.world.metrics.counters.inc("vs.exclusions_observed")
            for callback in self._excluded_callbacks:
                callback()
            return
        self._install(new_view)

    def on_excluded(self, callback: ExcludedFn) -> None:
        self._excluded_callbacks.append(callback)
