"""The new architecture composed on the event-routing kernel.

The paper's conclusion: "We have started the implementation of this new
architecture, using two different protocol composition frameworks: Appia
and Cactus.  The two implementations share the same protocol code at
each module, and differ only in the way interactions (events) are routed
across modules in each of the frameworks."

This module reproduces that duality.  :class:`ComposedNewArchitecture`
builds the *identical* protocol components as
:class:`repro.core.new_stack.NewArchitectureStack` (same classes, same
code), but the vertical interactions between the application and the
group-communication service — broadcast requests going down, deliveries
and view notifications going up — are routed as events through the
:mod:`repro.stack` composition kernel instead of direct method calls.

``tests/core/test_composed.py`` runs both compositions on identical
workloads and asserts byte-identical delivery sequences: same protocol
code, different routing, same behaviour.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.core.new_stack import NewArchitectureStack, StackConfig
from repro.gbcast.conflict import RBCAST_ABCAST, ConflictRelation
from repro.membership.view import View
from repro.net.message import AppMessage
from repro.stack.events import Event
from repro.stack.kernel import StackKernel
from repro.stack.layer import Layer

# Event types of the vertical interface (Fig. 9 arrows).
GBCAST_REQ = "gc.gbcast"        # down: application broadcast request
JOIN_REQ = "gc.join"            # down: membership join request
REMOVE_REQ = "gc.remove"        # down: membership remove request
GDELIVER = "gc.gdeliver"        # up: generic broadcast delivery
NEW_VIEW = "gc.new_view"        # up: membership view notification


class ServiceLayer(Layer):
    """Bottom layer: adapts the Fig. 9 component suite to events.

    Downward events invoke the components; component up-calls re-enter
    the stack as upward events.
    """

    name = "gc_service"

    def __init__(self, stack: NewArchitectureStack) -> None:
        super().__init__()
        self.gc = stack
        stack.gbcast.on_gdeliver(self._on_gdeliver)
        stack.membership.on_new_view(self._on_new_view)

    def on_down(self, event: Event) -> None:
        if event.type == GBCAST_REQ:
            self.gc.gbcast.gbcast_payload(event["payload"], event["msg_class"])
        elif event.type == JOIN_REQ:
            self.gc.membership.join(event["pid"])
        elif event.type == REMOVE_REQ:
            self.gc.membership.remove(event["pid"])
        # Nothing travels below this layer: the components own the network.

    def _on_gdeliver(self, message: AppMessage) -> None:
        self.emit_up(GDELIVER, message=message)

    def _on_new_view(self, view: View) -> None:
        self.emit_up(NEW_VIEW, view=view)


class ApplicationLayer(Layer):
    """Top layer: the application attachment point."""

    name = "gc_application"

    def __init__(self) -> None:
        super().__init__()
        self.delivered: list[AppMessage] = []
        self.views: list[View] = []
        self._deliver_callbacks: list[Callable[[AppMessage], None]] = []
        self._view_callbacks: list[Callable[[View], None]] = []

    # Application API ---------------------------------------------------
    def gbcast(self, payload: Any, msg_class: str) -> None:
        self.emit_down(GBCAST_REQ, payload=payload, msg_class=msg_class)

    def join(self, pid: str) -> None:
        self.emit_down(JOIN_REQ, pid=pid)

    def remove(self, pid: str) -> None:
        self.emit_down(REMOVE_REQ, pid=pid)

    def on_deliver(self, callback: Callable[[AppMessage], None]) -> None:
        self._deliver_callbacks.append(callback)

    def on_new_view(self, callback: Callable[[View], None]) -> None:
        self._view_callbacks.append(callback)

    # Upward events ------------------------------------------------------
    def on_up(self, event: Event) -> None:
        if event.type == GDELIVER:
            message = event["message"]
            self.delivered.append(message)
            for callback in self._deliver_callbacks:
                callback(message)
            return
        if event.type == NEW_VIEW:
            view = event["view"]
            self.views.append(view)
            for callback in self._view_callbacks:
                callback(view)
            return
        self.pass_on(event)

    def delivered_payloads(self) -> list[Any]:
        return [m.payload for m in self.delivered]


class ComposedNewArchitecture:
    """The Fig. 9 suite, composed via event routing instead of calls."""

    def __init__(
        self,
        process,
        initial_members: list[str],
        conflict: ConflictRelation = RBCAST_ABCAST,
        config: StackConfig | None = None,
    ) -> None:
        self.components = NewArchitectureStack(
            process, initial_members, conflict=conflict, config=config
        )
        self.service = ServiceLayer(self.components)
        self.app = ApplicationLayer()
        self.kernel = StackKernel(
            process,
            self.components.channel,
            [self.service, self.app],
            self.components.membership.current_members,
        )

    @property
    def pid(self) -> str:
        return self.components.pid

    # Convenience passthroughs to the application layer.
    def gbcast(self, payload: Any, msg_class: str) -> None:
        self.app.gbcast(payload, msg_class)

    def delivered_payloads(self) -> list[Any]:
        return self.app.delivered_payloads()

    def view(self) -> View | None:
        return self.components.view()

