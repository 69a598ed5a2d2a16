"""Application facade over the new-architecture stack.

One :class:`GroupCommunication` object per process gives the application
the operations of Fig. 9:

* ``abcast(payload)``   — totally ordered broadcast (routed through the
  generic broadcast component with the conflicting ``abcast`` class, per
  the Section 3.3 conflict table);
* ``rbcast(payload)``   — reliable broadcast (generic broadcast with the
  non-conflicting ``rbcast`` class);
* ``gbcast(payload, msg_class)`` — generic broadcast with a custom class
  from the stack's conflict relation;
* ``join`` / ``leave`` / ``remove`` — membership operations;
* ``on_adeliver`` / ``on_rdeliver`` / ``on_gdeliver`` / ``on_new_view``
  — upward callbacks.

Internal control traffic (membership operations, stage closures; classes
prefixed ``_``) never reaches the application: it travels on atomic
broadcast, and only generic-broadcast deliveries are dispatched here.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.core.new_stack import NewArchitectureStack
from repro.gbcast.conflict import ABCAST_CLASS, RBCAST_CLASS
from repro.membership.view import View
from repro.net.message import AppMessage, MsgId

DeliverFn = Callable[[AppMessage], None]
NewViewFn = Callable[[View], None]


class GroupCommunication:
    """The application-facing API of one group member."""

    def __init__(self, stack: NewArchitectureStack) -> None:
        self.stack = stack
        self._adeliver: list[DeliverFn] = []
        self._rdeliver: list[DeliverFn] = []
        self._gdeliver: list[DeliverFn] = []
        stack.gbcast.on_gdeliver(self._dispatch)
        stack.membership.on_new_view(self._on_view)
        self._view_callbacks: list[NewViewFn] = []

    # ------------------------------------------------------------------
    # Broadcast operations
    # ------------------------------------------------------------------
    def abcast(self, payload: Any) -> MsgId:
        """Totally ordered broadcast (conflicts with everything)."""
        return self.stack.gbcast.gbcast_payload(payload, ABCAST_CLASS).id

    def rbcast(self, payload: Any) -> MsgId:
        """Reliable broadcast (conflicts with abcasts, not with rbcasts)."""
        return self.stack.gbcast.gbcast_payload(payload, RBCAST_CLASS).id

    def gbcast(self, payload: Any, msg_class: str) -> MsgId:
        """Generic broadcast with an application-defined conflict class."""
        return self.stack.gbcast.gbcast_payload(payload, msg_class).id

    # ------------------------------------------------------------------
    # Membership operations
    # ------------------------------------------------------------------
    def join(self, pid: str) -> None:
        self.stack.membership.join(pid)

    def remove(self, pid: str) -> None:
        self.stack.membership.remove(pid)

    def leave(self) -> None:
        self.stack.membership.remove(self.pid)

    def request_join(self, seed: str) -> None:
        self.stack.membership.request_join(seed)

    @property
    def view(self) -> View | None:
        return self.stack.view()

    @property
    def pid(self) -> str:
        return self.stack.pid

    # ------------------------------------------------------------------
    # Callbacks
    # ------------------------------------------------------------------
    def on_adeliver(self, callback: DeliverFn) -> None:
        self._adeliver.append(callback)

    def on_rdeliver(self, callback: DeliverFn) -> None:
        self._rdeliver.append(callback)

    def on_gdeliver(self, callback: DeliverFn) -> None:
        """Fires for every application message, whatever its class."""
        self._gdeliver.append(callback)

    def on_new_view(self, callback: NewViewFn) -> None:
        self._view_callbacks.append(callback)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, message: AppMessage) -> None:
        for callback in self._gdeliver:
            callback(message)
        if message.msg_class == ABCAST_CLASS:
            for callback in self._adeliver:
                callback(message)
        elif message.msg_class == RBCAST_CLASS:
            for callback in self._rdeliver:
                callback(message)

    def _on_view(self, view: View) -> None:
        for callback in self._view_callbacks:
            callback(view)

    @property
    def delivered(self) -> list[AppMessage]:
        """Every message this member g-delivered, in order: generic
        broadcast's own log (read it, do not change it)."""
        return self.stack.gbcast.delivered_log.messages

    def delivered_payloads(self) -> list[Any]:
        return [m.payload for m in self.delivered]
