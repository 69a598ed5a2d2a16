"""Simulated processes and the protocol-component base class.

A :class:`Process` models one node of the distributed system.  It hosts a
set of protocol components (failure detector, consensus, broadcast
layers, ...), each of which registers *ports* — named message endpoints.
The network delivers ``(port, payload)`` envelopes; the process routes
them to the owning component unless it has crashed.

Crash semantics follow the crash-stop model of the paper: a crashed
process silently stops receiving messages and firing timers (Isis's
"kill the wrongly excluded process" of Section 4.3 is a plain
:meth:`Process.crash`).

On top of crash-stop, :meth:`Process.recover` implements the
crash-*recovery* model, the one way back from a crash: the process
comes back under a fresh **incarnation number** with empty volatile
state (no ports, no components, a fresh message-id factory).
Everything belonging to the old incarnation — pending timers, in-flight
messages, channel sequence numbers — is fenced by the incarnation number
so the new incarnation is indistinguishable from a brand-new process
that happens to reuse the pid.  The world's recovery factory (see
``World.set_recovery_factory``) rebuilds the protocol stack on the
recovered process.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.net.message import MsgIdFactory
from repro.sim.scheduler import TimerOwner

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.sim.world import World

PortHandler = Callable[[str, Any], None]


class Process(TimerOwner):
    """One simulated node: identity, ports, timers, crash state."""

    def __init__(self, pid: str, world: "World") -> None:
        self.pid = pid
        self.world = world
        self.crashed = False
        self.crash_time: float | None = None
        #: Crash-recovery incarnation number: 0 for the original run,
        #: bumped by every :meth:`recover`.  Everything volatile (timers,
        #: message ids, channel epochs) is tagged with it.
        self.incarnation = 0
        #: Shared message-id factory: every component that mints
        #: AppMessage ids on this process must use it, so ids never
        #: collide across components.
        self.msg_ids = MsgIdFactory(pid)
        # Cached span-log reference: schedule() touches it per call and
        # attribute chains cost on the hot path.
        self._spans = world.trace.spans
        self._scheduler = world.scheduler
        self._ports: dict[str, PortHandler] = {}
        self._components: dict[str, "Component"] = {}

    # ------------------------------------------------------------------
    # Component and port registry
    # ------------------------------------------------------------------
    def add_component(self, component: "Component") -> None:
        if component.name in self._components:
            raise ValueError(f"duplicate component {component.name!r} on {self.pid}")
        self._components[component.name] = component
        self.world._unstarted.append(component)

    def component(self, name: str) -> "Component":
        return self._components[name]

    def components(self) -> list["Component"]:
        return list(self._components.values())

    def register_port(self, port: str, handler: PortHandler) -> None:
        if port in self._ports:
            raise ValueError(f"duplicate port {port!r} on {self.pid}")
        self._ports[port] = handler

    def dispatch(self, port: str, src: str, payload: Any) -> None:
        """Deliver an incoming envelope to the component owning ``port``."""
        if self.crashed:
            return
        handler = self._ports.get(port)
        if handler is None:
            self.world.trace.emit(self.now, self.pid, "process", "unknown_port", port=port, src=src)
            return
        handler(src, payload)

    # ------------------------------------------------------------------
    # Time and timers
    # ------------------------------------------------------------------
    # ``schedule`` and ``post``: see :class:`~repro.sim.scheduler.TimerOwner`.
    @property
    def now(self) -> float:
        return self._scheduler._now

    # ------------------------------------------------------------------
    # Crash / recovery
    # ------------------------------------------------------------------
    def crash(self) -> None:
        if not self.crashed:
            self.crashed = True
            self.crash_time = self.now
            # Latency intervals opened for this process's own messages
            # mostly can never close now (the broadcast died with it);
            # prune them so soak runs with repeated crashes don't leak.
            abandoned = self.world.metrics.latency.abandon_owner(self.pid)
            if abandoned:
                self.world.metrics.counters.inc("latency.abandoned_on_crash", abandoned)
            self.world.trace.emit(self.now, self.pid, "process", "crash")

    def recover(self) -> "Process":
        """Re-incarnate a crashed process with empty volatile state.

        Recovery models a real process restart: the incarnation number
        is bumped, all ports and components are dropped, and the
        message-id factory starts a fresh (incarnation-tagged) sequence.
        The caller — normally ``World.recover`` via a recovery factory —
        is responsible for building a new protocol stack on the bare
        process and rejoining it to the group.
        """
        if not self.crashed:
            return self
        self.incarnation += 1
        self.crashed = False
        self.crash_time = None
        self.msg_ids = MsgIdFactory(self.pid, self.incarnation)
        self._ports.clear()
        self._components.clear()
        self.world.trace.emit(
            self.now, self.pid, "process", "recover", incarnation=self.incarnation
        )
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "crashed" if self.crashed else "up"
        return f"Process({self.pid}, {state})"


class Component:
    """Base class for protocol components hosted on a process.

    Subclasses register ports in ``__init__`` and may override
    :meth:`start`, which the world calls once the whole topology is wired
    (so cross-component references are safe to use).

    ``pid`` and ``world`` are plain attributes: a component lives and
    dies with one incarnation of its process (recovery builds new ones).
    """

    def __init__(self, process: Process, name: str) -> None:
        self.process = process
        self.name = name
        self.pid = process.pid
        self.world = process.world
        self._scheduler = process.world.scheduler
        #: :meth:`Process.schedule` of the hosting process, bound once:
        #: a component's timers die with its process's incarnation.
        self.schedule = process.schedule
        process.add_component(self)

    # Convenience accessors -------------------------------------------------
    # ``schedule`` and ``post``: see :class:`~repro.sim.scheduler.TimerOwner`.
    @property
    def now(self) -> float:
        return self._scheduler._now

    def trace(self, event: str, **details: Any) -> None:
        trace = self.world.trace
        if trace.enabled:
            trace.emit(self.now, self.pid, self.name, event, **details)

    @property
    def spans(self):
        """The world's causal span log (see ``repro.sim.tracing.SpanLog``)."""
        return self.process._spans

    def register_port(self, port: str, handler: PortHandler) -> None:
        self.process.register_port(port, handler)

    def start(self) -> None:
        """Hook called once all components of all processes are wired."""
