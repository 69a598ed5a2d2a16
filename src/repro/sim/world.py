"""The simulated world: processes + network + clock + metrics.

A :class:`World` owns everything a run needs.  Typical use::

    world = World(seed=1)
    pids = world.spawn(3)              # p00, p01, p02
    ...wire stacks onto world.processes...
    world.start()
    world.run_for(1_000.0)             # one simulated second

Crash and partition injection go through the world so that tests and
benchmarks read as scenario scripts.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.metrics.recorder import MetricsRecorder
from repro.net.topology import LAN, LinkModel, PartitionState
from repro.net.transport import UnreliableTransport
from repro.sim.process import Process
from repro.sim.randomness import fork_rng
from repro.sim.scheduler import Scheduler
from repro.sim.tracing import TraceLog


def make_pid(index: int) -> str:
    """Canonical process name; zero-padded so list order == sort order."""
    return f"p{index:02d}"


class World:
    """Container for one deterministic simulation run."""

    def __init__(
        self,
        seed: int = 0,
        default_link: LinkModel = LAN,
        trace_enabled: bool = True,
        trace_max_records: int | None = None,
        trace_max_spans: int | None = None,
    ) -> None:
        self.seed = seed
        self.scheduler = Scheduler()
        self.trace = TraceLog(
            enabled=trace_enabled,
            max_records=trace_max_records,
            max_spans=trace_max_spans,
        )
        #: Causal span tree (see ``repro.sim.tracing.SpanLog``).
        self.spans = self.trace.spans
        self.metrics = MetricsRecorder()
        self.partitions = PartitionState()
        self.processes: dict[str, Process] = {}
        self.transport = UnreliableTransport(self, default_link)
        self.rng = fork_rng(seed, "world")
        self._started = False
        #: Components not yet started, in registration order (appended by
        #: ``Process.add_component``).
        self._unstarted: list[Any] = []
        self._recovery_factories: dict[str, Callable[[Process], Any]] = {}

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def add_process(self, pid: str) -> Process:
        if pid in self.processes:
            raise ValueError(f"duplicate process {pid!r}")
        process = Process(pid, self)
        self.processes[pid] = process
        return process

    def spawn(self, count: int, start_index: int = 0) -> list[str]:
        """Create ``count`` processes with canonical names; returns pids."""
        pids = [make_pid(start_index + i) for i in range(count)]
        for pid in pids:
            self.add_process(pid)
        return pids

    def process(self, pid: str) -> Process:
        return self.processes[pid]

    def pids(self) -> list[str]:
        return sorted(self.processes)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Call ``start()`` once on every component of every process.

        Idempotent per component: calling again (``run`` and ``run_for``
        call it on every invocation) starts only components created since
        the previous call — e.g. a process spawned mid-run to join the
        group, or a stack rebuilt by crash recovery — in pid order, each
        process's in registration order.  A component whose process
        recovered before it was started is gone with its incarnation and
        never starts.
        """
        self._started = True
        if not self._unstarted:
            return
        # A stable sort: within one pid, registration order stays.
        fresh = sorted(self._unstarted, key=lambda component: component.pid)
        self._unstarted = []
        for component in fresh:
            if component.process._components.get(component.name) is component:
                component.start()

    def run(self, until: float | None = None, max_events: int | None = None) -> int:
        self.start()
        return self.scheduler.run(until=until, max_events=max_events)

    def run_for(self, duration: float, max_events: int | None = None) -> int:
        self.start()
        return self.scheduler.run_for(duration, max_events=max_events)

    @property
    def now(self) -> float:
        return self.scheduler.now

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def _fault_time(self, at: float, kind: str) -> float:
        """Clamp a fault scheduled in the past to the current instant.

        Fault plans are data (generated, shrunk, time-coarsened, replayed
        from files), so an event landing behind the clock must behave
        deterministically instead of blowing up in the scheduler — or,
        worse, being dropped.  The event fires now, after anything already
        queued for this instant, and the clamp is traced and counted so a
        surprised caller can see it happened.
        """
        if at < self.now:
            self.metrics.counters.inc("world.fault_past_clamped")
            self.trace.emit(self.now, "-", "world", "fault_past_clamped", kind=kind, at=at)
            return self.now
        return at

    def crash(self, pid: str, at: float | None = None) -> None:
        """Crash ``pid`` now, or schedule the crash at absolute time ``at``."""
        if at is None:
            self.processes[pid].crash()
        else:
            self.scheduler.at(self._fault_time(at, "crash"), self.processes[pid].crash)

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------
    def set_recovery_factory(self, pid: str, factory: Callable[[Process], Any]) -> None:
        """Register the stack rebuilder invoked when ``pid`` recovers.

        The factory receives the bare, re-incarnated :class:`Process`
        (no ports, no components) and must wire a fresh protocol stack
        onto it; ``repro.core.new_stack.enable_recovery`` registers one
        for every member of a new-architecture group.
        """
        self._recovery_factories[pid] = factory

    def recover(self, pid: str, at: float | None = None) -> None:
        """Restart ``pid`` as a new incarnation, now or at time ``at``.

        The process comes back with empty volatile state; if a recovery
        factory is registered for it, the factory rebuilds its stack and
        the new components are started.  Messages and timers of the old
        incarnation are fenced (see ``Process.recover``).
        """
        if at is None:
            self._do_recover(pid)
        else:
            self.scheduler.at(self._fault_time(at, "recover"), self._do_recover, pid)

    def _do_recover(self, pid: str) -> None:
        process = self.processes[pid]
        if not process.crashed:
            return
        process.recover()
        self.metrics.counters.inc("world.recoveries")
        factory = self._recovery_factories.get(pid)
        if factory is not None:
            factory(process)
            if self._started:
                self.start()

    def split(self, groups: list[list[str]], at: float | None = None) -> None:
        """Partition the network into the given groups."""
        if at is None:
            self.partitions.split(groups)
            self.trace.emit(self.now, "-", "world", "partition", groups=groups)
        else:
            self.scheduler.at(self._fault_time(at, "partition"), self.split, groups)

    def heal(self, at: float | None = None) -> None:
        if at is None:
            self.partitions.heal()
            self.trace.emit(self.now, "-", "world", "heal")
        else:
            self.scheduler.at(self._fault_time(at, "heal"), self.heal)

    def cut(
        self, src: str, dst: str, at: float | None = None, until: float | None = None
    ) -> None:
        """Sever the directed link ``src`` → ``dst`` (``dst`` → ``src``
        stays up), now or at ``at``; mend it at ``until`` if given."""
        if at is None:
            self.partitions.cut(src, dst)
            self.trace.emit(self.now, "-", "world", "cut", src=src, dst=dst)
        else:
            self.scheduler.at(self._fault_time(at, "cut"), self.cut, src, dst)
        if until is not None:
            self.mend(src, dst, at=until)

    def mend(self, src: str, dst: str, at: float | None = None) -> None:
        if at is None:
            self.partitions.mend(src, dst)
            self.trace.emit(self.now, "-", "world", "mend", src=src, dst=dst)
        else:
            self.scheduler.at(self._fault_time(at, "mend"), self.mend, src, dst)

    def alive(self) -> list[str]:
        return [pid for pid in self.pids() if not self.processes[pid].crashed]

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def u_send(
        self,
        src: str,
        dst: str,
        port: str,
        payload: Any,
        layer: str = "other",
        byte_split: list[tuple[str, int]] | None = None,
    ) -> None:
        self.transport.u_send(src, dst, port, payload, layer=layer, byte_split=byte_split)

    def run_until(
        self,
        predicate: Callable[[], bool],
        timeout: float = 10_000.0,
        step: float = 10.0,
    ) -> bool:
        """Advance simulated time in ``step`` slices until ``predicate()``.

        Returns True if the predicate became true within ``timeout`` ms of
        simulated time (measured from the current simulated time).
        """
        self.start()
        deadline = self.now + timeout
        while self.now < deadline:
            if predicate():
                return True
            self.run_for(step)
        return predicate()


# ----------------------------------------------------------------------
# Groups
# ----------------------------------------------------------------------
def build_group(world: World, count: int, stack_class: Callable[..., Any], **options: Any) -> dict:
    """Spawn ``count`` processes after the world's existing ones and run
    ``stack_class(process, pids, **options)`` on each: every stack of the
    repository, new or traditional, is built this one way."""
    pids = world.spawn(count, start_index=len(world.processes))
    return {pid: stack_class(world.process(pid), pids, **options) for pid in pids}


def add_joiner(world: World, stacks: dict, **options: Any) -> Any:
    """Spawn one more process running the same stack as ``stacks``, outside
    the group (``is_member=False``) and ready to ask for a join; it is
    added to ``stacks``."""
    stack_class = type(next(iter(stacks.values())))
    (stack,) = build_group(world, 1, stack_class, is_member=False, **options).values()
    stacks[stack.pid] = stack
    return stack
