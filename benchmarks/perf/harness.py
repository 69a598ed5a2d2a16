"""Child-side harness: one simulated group under open-loop load.

Everything here reaches the program through its public API only
(``World``, ``LinkModel``, ``StackConfig``, ``build_new_group``,
``enable_recovery``, the ``GroupCommunication`` facade, the world's
counters, scheduler, span and trace logs, ``repro.sim.critpath`` and
``repro.checkers``).  Importing this module imports the program, so the
caller times the import as part of set-up.

Two clocks: everything named ``sim_*`` / ``*_ms`` is simulated time
under one seeded scheduler and repeats exactly for a seed; everything
named ``host_*`` / ``*_s`` is ``time.perf_counter`` of this interpreter,
rescaled to a reference speed of the machine (``HostMeter``).
"""

from __future__ import annotations

import cProfile
import heapq
import math
import resource
import statistics
import sys
import time

from layers import (
    CRITPATH_KINDS,
    HOST_LAYERS,
    REPRO_DIR,
    SPAN_LAYERS,
    WIRE_LABELS,
    attribute,
)
from workloads import (
    ABCAST,
    BACKLOG_LIMIT,
    LINK_JITTER_MS,
    LINK_MIN_MS,
    Op,
    Workload,
    poisson_schedule,
    reference_schedule,
    traced_schedule,
)

sys.path.insert(0, str(REPRO_DIR.parent))

from repro import (  # noqa: E402
    RBCAST_ABCAST,
    GroupCommunication,
    StackConfig,
    World,
    bank_relation,
    build_new_group,
    enable_recovery,
)
from repro.checkers import (  # noqa: E402
    check_agreement,
    check_all,
    check_fifo,
    check_incarnation_monotonic,
    check_no_duplicates,
    check_prefix,
    check_total_order,
    check_view_consistency,
)
from repro.net.topology import LinkModel  # noqa: E402
from repro.net.wire import Blob  # noqa: E402
from repro.sim import critpath  # noqa: E402

#: Simulated time an op may take to reach every alive member after the
#: last op was issued, before it counts as failed.
DRAIN_MS = 60_000.0


#: Host seconds the calibration kernel takes at the reference speed (this
#: box on a quiet minute).  Frozen: it fixes the scale of every host
#: metric, so changing it or the kernel invalidates all earlier readings.
KERNEL_REFERENCE_S = 0.0019
#: Host seconds of the run between two calibrations.
METER_CHUNK_S = 0.04


class _Event:
    __slots__ = ("at", "seq", "hops")

    def __init__(self, at: int, seq: int, hops: int) -> None:
        self.at, self.seq, self.hops = at, seq, hops

    def __lt__(self, other: "_Event") -> bool:
        return (self.at, self.seq) < (other.at, other.seq)


def kernel_s() -> float:
    """Host seconds of a fixed piece of interpreter work that touches
    nothing of the program under test: half integer arithmetic and dict
    stores, half a toy event loop (small objects, a heap, comparisons
    through ``__lt__``).  When a neighbour loaded the memory system the
    first half slowed more than the stack under test and the second
    less; scaled by both, identical runs agreed within 4-6 %, by either
    alone within 4-8 %."""
    started = time.perf_counter()
    x = 0
    cells = {}
    for i in range(8_000):
        x += i * i % 7
        cells[i & 4095] = x
    heap = [_Event(i % 17, i, 6) for i in range(90)]
    heapq.heapify(heap)
    seq = len(heap)
    while heap:
        event = heapq.heappop(heap)
        cells[event.seq % 4099] = (event.at, event.hops)
        if event.hops:
            seq += 1
            heapq.heappush(heap, _Event(event.at + 1 + seq * 7919 % 13, seq, event.hops - 1))
    return time.perf_counter() - started


class HostMeter:
    """Host seconds of a run, at the machine's reference speed.

    This box runs the same single-threaded work anywhere from 7 to 11 s
    within minutes, in CPU time as much as in wall time (a shared core,
    not preemption), and the speed changes within a second, so no clock
    of its own repeats within 10 %.  The meter therefore runs the 2 ms
    calibration kernel after every ``METER_CHUNK_S`` of the run and
    scales the run's seconds by ``KERNEL_REFERENCE_S`` over the kernel's
    mean time: what drifts with the machine cancels (identical runs then
    agree within 2-4 %; unscaled, within 16-54 %), what the program
    costs stays.  The kernel's own time is not counted.
    """

    def __init__(self, samples: int = 1) -> None:
        self.raw_s = 0.0
        self._kernels = [kernel_s() for _ in range(samples)]
        self._since = time.perf_counter()

    def tick(self) -> None:
        """Between two ops: calibrate if a chunk's worth of time passed."""
        now = time.perf_counter()
        if now - self._since >= METER_CHUNK_S:
            self.raw_s += now - self._since
            self._kernels.append(kernel_s())
            self._since = time.perf_counter()

    def close(self, samples: int = 1) -> None:
        self.raw_s += time.perf_counter() - self._since
        self._kernels += [kernel_s() for _ in range(samples)]

    @property
    def reference_s(self) -> float:
        return self.raw_s * KERNEL_REFERENCE_S / statistics.fmean(self._kernels)


def percentile(ordered: list[float], share: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(math.ceil(share * len(ordered)) - 1, 0)]


def conflict_order_violations(histories: dict[str, list], relation, classes) -> list[str]:
    """Generic broadcast's partial order (every conflicting pair in the
    same order at every member), in linear time.

    ``check_conflict_order`` walks all pairs: a minute at 8 000 ops.
    Here a message's place among those it conflicts with is the number
    of them delivered before it, per conflicting class.  That count
    names the same set at every member as long as the counted class is
    totally ordered itself, so of two conflicting classes one must
    conflict with itself — true of both relations the workloads use.
    """
    ordered = [cls for cls in classes if relation.conflicts(cls, cls)]
    counted = {}
    for cls in classes:
        counted[cls] = [k for k in ordered if k != cls and relation.conflicts(cls, k)]
        for k in classes:
            if relation.conflicts(cls, k) and cls not in ordered and k not in ordered:
                raise ValueError(f"no linear order check for classes {cls!r} and {k!r}")
    violations: list[str] = []
    for cls in ordered:
        violations += check_total_order(
            {actor: [m for m in log if m.msg_class == cls] for actor, log in histories.items()}
        ).violations
    places: dict[str, dict] = {}
    for actor, log in histories.items():
        seen = dict.fromkeys(ordered, 0)
        place = places[actor] = {}
        for message in log:
            place[message.id] = tuple(seen[k] for k in counted[message.msg_class])
            if message.msg_class in seen:
                seen[message.msg_class] += 1
    reference, *others = places
    for actor in others:
        moved = [mid for mid, at in places[actor].items() if places[reference].get(mid, at) != at]
        if moved:
            violations.append(
                f"{actor}: {len(moved)} messages ordered differently than at {reference} "
                f"against conflicting ones (first: {moved[0]})"
            )
    return violations


class Group:
    """A group built through the public API, its load and what it delivered.

    Deliveries are logged per *actor* — ``"p00#1"`` is the second
    incarnation of ``p00`` — because a recovered process is a new
    application instance with a new facade and an empty history.
    """

    def __init__(self, workload: Workload, seed: int, trace: bool = False) -> None:
        self.workload = workload
        self.relation = bank_relation() if workload.relation == "bank" else RBCAST_ABCAST
        config = StackConfig(**workload.stack_config())
        link = LinkModel(LINK_MIN_MS, LINK_JITTER_MS, bytes_per_ms=workload.bytes_per_ms)
        self.world = World(seed=seed, default_link=link, trace_enabled=trace)
        stacks = build_new_group(
            self.world, workload.members, conflict=self.relation, config=config
        )
        self.pids = sorted(stacks)
        self.apis: dict[str, GroupCommunication] = {}
        self.actor_of: dict[str, str] = {}
        self.history: dict[str, list] = {}
        self.delivered_at: dict[str, dict[int, float]] = {}
        self.views: dict[str, list[tuple[float, object]]] = {}
        #: Actor each op was handed to, by op index.
        self.origin: list[str] = []
        self.rerouted = 0
        self.late_ms_max = 0.0
        for pid, stack in stacks.items():
            self._attach(pid, stack)
        if workload.victim is not None:
            enable_recovery(
                self.world, stacks, conflict=self.relation, config=config,
                on_rebuild=self._attach,
            )
            self.world.crash(workload.victim, at=workload.crash_ms)
            self.world.recover(workload.victim, at=workload.recover_ms)
        self.world.start()

    def _attach(self, pid: str, stack) -> None:
        incarnation = sum(1 for actor in self.history if actor.startswith(f"{pid}#"))
        actor = f"{pid}#{incarnation}"
        api = GroupCommunication(stack)
        self.apis[pid] = api
        self.actor_of[pid] = actor
        log = self.history[actor] = []
        times = self.delivered_at[actor] = {}
        views = self.views[actor] = []
        scheduler = self.world.scheduler

        def on_deliver(message) -> None:
            log.append(message)
            times[message.payload[0]] = scheduler.now

        api.on_gdeliver(on_deliver)
        api.on_new_view(lambda view: views.append((scheduler.now, view)))

    # ------------------------------------------------------------------
    # Load
    # ------------------------------------------------------------------
    def _route(self, member: int) -> str:
        """The addressed member, or the next one in pid order that is
        alive and holds a view containing itself."""
        alive = self.world.alive()
        for step in range(len(self.pids)):
            pid = self.pids[(member + step) % len(self.pids)]
            view = self.apis[pid].view
            if pid in alive and view is not None and pid in view:
                self.rerouted += step > 0
                return pid
        raise RuntimeError("no member can take the op")

    def drive(self, schedule: list[Op], meter: HostMeter | None = None) -> None:
        """Issue every op at its due time.  Open loop: the clock alone
        releases the next op, never the completion of an earlier one."""
        world = self.world
        blob = Blob(self.workload.payload_bytes)
        faulty = self.workload.victim is not None
        for index, (due, member, msg_class) in enumerate(schedule):
            if meter is not None:
                meter.tick()
            world.run(until=due)
            self.late_ms_max = max(self.late_ms_max, world.now - due)
            pid = self._route(member) if faulty else self.pids[member]
            # Registered before the call: self-delivery can be synchronous.
            self.origin.append(self.actor_of[pid])
            if msg_class == ABCAST:
                self.apis[pid].abcast((index, blob))
            else:
                self.apis[pid].gbcast((index, blob), msg_class)

    def undelivered_at_origin(self) -> int:
        return sum(
            1 for index, actor in enumerate(self.origin)
            if index not in self.delivered_at[actor]
        )

    def steady_actors(self) -> list[str]:
        """Actors that never crashed: each must deliver every op."""
        return [f"{pid}#0" for pid in self.pids if pid != self.workload.victim]

    def _settled(self) -> bool:
        steady = [self.history[actor] for actor in self.steady_actors()]
        if any(len(log) < len(self.origin) for log in steady):
            return False
        # A recovered incarnation resumes from a state snapshot; under
        # total order it has caught up once it delivers what the others
        # delivered last.
        victim = self.workload.victim
        if victim is not None and self.actor_of[victim] != f"{victim}#0":
            log = self.history[self.actor_of[victim]]
            return bool(log) and log[-1].id == steady[0][-1].id
        return True

    def drain(self) -> bool:
        return self.world.run_until(self._settled, timeout=DRAIN_MS, step=50.0)

    # ------------------------------------------------------------------
    # Outcome
    # ------------------------------------------------------------------
    def latencies(self, schedule: list[Op]) -> list[float | None]:
        """Per op, due time -> g-delivery at its origin; None for an op
        never delivered (``verify`` counts it as failed).  An op whose
        origin crashed with it in flight is timed to its first delivery
        at a member that never crashed."""
        steady = [self.delivered_at[actor] for actor in self.steady_actors()]
        current = set(self.actor_of.values())
        out: list[float | None] = []
        for index, actor in enumerate(self.origin):
            at = self.delivered_at[actor].get(index)
            if at is None and actor not in current:
                at = min((t[index] for t in steady if index in t), default=None)
            out.append(None if at is None else at - schedule[index][0])
        return out

    def verify(self) -> tuple[list[str], set[int]]:
        """Safety violations, and the ops that did not reach every member
        that should hold them."""
        steady = {actor: self.history[actor] for actor in self.steady_actors()}
        views = {actor: [view for _at, view in log] for actor, log in self.views.items()}
        classes = [cls for cls, _share in self.workload.classes]
        if all(self.relation.conflicts(a, b) for a in classes for b in classes):
            # Every pair conflicts, so the conflict order is total order:
            # the program's whole battery applies, sender FIFO included.
            violations = list(check_all(steady, total_order=True, view_histories=views).violations)
        else:
            # ``check_all`` walks all pairs for the conflict order, and
            # asserts sender FIFO, which generic broadcast does not
            # promise once classes commute (README, anomaly 7): the same
            # battery without FIFO, the conflict order in linear time.
            violations = []
            for check in (check_no_duplicates, check_agreement, check_incarnation_monotonic):
                violations += check(steady).violations
            violations += conflict_order_violations(steady, self.relation, classes)
            violations += check_view_consistency(views).violations

        every_op = set(range(len(self.origin)))
        failed: set[int] = set()
        for times in (self.delivered_at[actor] for actor in steady):
            failed |= every_op - times.keys()
        reference = next(iter(steady.values()))
        ids = [m.id for m in reference]
        current = set(self.actor_of.values())
        for actor, log in self.history.items():
            if actor in steady:
                continue
            if actor not in current:
                if not check_prefix(log, reference):
                    violations.append(f"{actor}: crashed log is not a prefix of the others'")
                continue
            # Recovered incarnation: a contiguous run of the total order
            # from its first delivery to the end.
            start = ids.index(log[0].id) if log and log[0].id in ids else len(ids)
            if not log or [m.id for m in log] != ids[start:]:
                violations.append(f"{actor}: recovered log is not a suffix of the others'")
                expected = {m.payload[0] for m in reference[start:]}
                failed |= expected - self.delivered_at[actor].keys()
        return violations, failed

    def fifo_inversions(self) -> int:
        """Messages delivered after a later one of the same sender and
        class.  ``verify`` gates on sender FIFO where every pair
        conflicts; where classes commute this only counts, because a
        stage closure delivers its pending set after fast-path
        deliveries of the next stage."""
        count = 0
        for cls, _share in self.workload.classes:
            count += len(check_fifo({
                actor: [m for m in self.history[actor] if m.msg_class == cls]
                for actor in self.steady_actors()
            }).violations)
        return count

    def outage_ms(self, schedule: list[Op]) -> float | None:
        """Longest interval after the crash in which at least one op was
        due and pending while no survivor delivered anything."""
        crash = self.workload.crash_ms
        if crash is None:
            return None
        steady = [self.delivered_at[actor] for actor in self.steady_actors()]
        served = [
            min((t[index] for t in steady if index in t), default=math.inf)
            for index in range(len(self.origin))
        ]
        moments = sorted({at for t in steady for at in t.values() if at > crash})
        longest = 0.0
        oldest = 0  # first op (ops are in due order) not served before `end`
        for start, end in zip([crash, *moments], moments):
            # Nothing is delivered inside (start, end): the ops pending
            # there are those due before `end` and served no earlier.
            while oldest < len(served) and served[oldest] < end:
                oldest += 1
            if oldest < len(served) and schedule[oldest][0] < end:
                longest = max(longest, end - max(schedule[oldest][0], start))
        return longest

    def catchup_ms(self) -> float | None:
        """``recover`` -> the recovered member reports a view holding itself."""
        victim = self.workload.victim
        if victim is None or self.actor_of[victim] == f"{victim}#0":
            return None
        for at, view in self.views[self.actor_of[victim]]:
            if victim in view:
                return at - self.workload.recover_ms
        return None


def outcome(group: Group, schedule: list[Op]) -> dict:
    """Correctness and the simulated-clock metrics of a drained run."""
    violations, failed = group.verify()
    ops = len(schedule)
    # Each violation implicates at least one op.
    failed_ops = min(len(failed) + len(violations), ops)
    completed = ops - len(failed)
    per_op = group.latencies(schedule)
    latencies = sorted(latency for latency in per_op if latency is not None)
    by_origin: dict[str, list[float]] = {}
    for actor, latency in zip(group.origin, per_op):
        if latency is not None:
            by_origin.setdefault(actor.split("#")[0], []).append(latency)
    counters = group.world.metrics.counters
    return {
        "ops": ops,
        "completed": completed,
        "failed": failed_ops,
        "violations": violations,
        "latency_samples": len(latencies),
        "sim_latency_p50_ms": percentile(latencies, 0.50),
        "sim_latency_p99_ms": percentile(latencies, 0.99),
        "sim_latency_p50_by_origin_ms": {
            pid: statistics.median(values) for pid, values in sorted(by_origin.items())
        },
        "sim_outage_ms": group.outage_ms(schedule),
        "sim_catchup_ms": group.catchup_ms(),
        "wire_msgs_per_op": counters.get("net.sent") / completed,
        "wire_bytes_per_op": counters.get("net.bytes") / completed,
        "failed_ops_share": failed_ops / ops,
        "fifo_inversions": group.fifo_inversions(),
        "events": group.world.scheduler.events_processed,
        "sim_end_ms": group.world.now,
        "rerouted_ops": group.rerouted,
        "gen_late_ms_max": group.late_ms_max,
        "counters": counters.snapshot(),
    }


def _timed_run(group: Group, schedule: list[Op], spans, name: str) -> HostMeter:
    """Drive and drain, metered: the timed section of a run."""
    meter = HostMeter()
    with spans.span(name):
        group.drive(schedule, meter)
    with spans.span("drain"):
        group.drain()
    meter.close()
    return meter


# ----------------------------------------------------------------------
# The three kinds of child run
# ----------------------------------------------------------------------
def _set_up(workload: Workload, seed: int, spans, process_start: float):
    """The reference run up to its first op; host seconds since the
    process started (its imports included)."""
    with spans.span("setup.schedule"):
        schedule = reference_schedule(workload, seed)
    with spans.span("setup.build_group"):
        group = Group(workload, seed)
    return schedule, group, time.perf_counter() - process_start


def run_setup(workload: Workload, seed: int, spans, process_start: float) -> dict:
    """Set-up alone: ``setup_s`` takes the median of more samples than
    there are reference runs."""
    _schedule, _group, setup_raw_s = _set_up(workload, seed, spans, process_start)
    return {"setup_raw_s": setup_raw_s}


def run_reference(workload: Workload, seed: int, spans, process_start: float) -> dict:
    """Fixed rate, fixed op count, tracing off, host-timed."""
    schedule, group, setup_raw_s = _set_up(workload, seed, spans, process_start)
    meter = _timed_run(group, schedule, spans, "run.reference")
    with spans.span("check"):
        block = outcome(group, schedule)
    block.update(
        setup_raw_s=setup_raw_s,
        host_raw_s=meter.raw_s,
        host_s=meter.reference_s,
        host_ops_per_s=block["completed"] / meter.reference_s,
        host_peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    return block


def run_rung(workload: Workload, seed: int, rate: float, spans) -> dict:
    """One fresh world at one offered rate for one window."""
    window_ms = workload.rung_ms
    schedule = poisson_schedule(workload, seed, rate, window_ms=window_ms)
    group = Group(workload, seed)
    with spans.span(f"run.ladder.{rate:g}"):
        group.drive(schedule)
        group.world.run(until=window_ms)
        backlog = group.undelivered_at_origin()
        # An op due inside the window and still missing `limit` later
        # has missed the limit, whatever it ends up taking.
        group.world.run_for(workload.limit_ms)
        latencies = sorted(
            math.inf if latency is None else latency for latency in group.latencies(schedule)
        )
    with spans.span("drain"):
        group.drain()
    with spans.span("check"):
        violations, failed = group.verify()
    p50, p99 = percentile(latencies, 0.50), percentile(latencies, 0.99)
    ops = len(schedule)
    return {
        "rate": rate,
        "ops": ops,
        "failed": min(len(failed) + len(violations), ops),
        "violations": violations,
        "backlog_share": backlog / ops,
        "sim_latency_p50_ms": None if math.isinf(p50) else p50,
        "sim_latency_p99_ms": None if math.isinf(p99) else p99,
        "passed": p99 <= workload.limit_ms and backlog <= BACKLOG_LIMIT * ops,
    }


def run_ladder(workload: Workload, seed: int, spans) -> dict:
    """Ascending rates, a fresh world each, stopping after the first
    rung that misses the latency limit or ends with a backlog."""
    rungs = []
    for rate in workload.ladder:
        rungs.append(run_rung(workload, seed, rate, spans))
        if not rungs[-1]["passed"]:
            break
    passing = [rung["rate"] for rung in rungs if rung["passed"]]
    return {
        "window_ms": workload.rung_ms,
        "rungs": rungs,
        "sim_max_rate_ops_s": max(passing, default=None),
        # The top rung passed: the knee is above the ladder.
        "ladder_saturated": bool(rungs) and rungs[-1]["passed"],
    }


def run_traced(workload: Workload, seed: int, spans) -> dict:
    """The leading share of the reference schedule, twice: plain, then
    with the program's tracing on under cProfile.  The plain twin is the
    denominator of ``trace.overhead_ratio`` and of events per host
    second; every other per-layer metric comes from the traced run."""
    schedule = traced_schedule(workload, seed)
    plain = Group(workload, seed)
    plain_s = _timed_run(plain, schedule, spans, "run.plain").reference_s
    traced = Group(workload, seed, trace=True)
    profile = cProfile.Profile()
    # One chunk, calibrated before and after only: inside the profile
    # the kernel's calls would be counted, a different number each run.
    meter = HostMeter(samples=16)
    profile.enable()
    with spans.span("run.traced"):
        traced.drive(schedule)
    with spans.span("drain"):
        traced.drain()
    profile.disable()
    meter.close(samples=16)
    with spans.span("check"):
        block = outcome(traced, schedule)
        if block["counters"] != plain.world.metrics.counters.snapshot():
            block["violations"].append("tracing changed the program's counters")
    hosts, unmapped = attribute(profile)
    for host in hosts.values():
        host["self_s"] *= meter.reference_s / meter.raw_s
    block.update(
        plain_host_s=plain_s,
        traced_host_s=meter.reference_s,
        unmapped_files=unmapped,
        per_layer=per_layer(traced, block, hosts, plain_s, meter.reference_s),
    )
    return block


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
def _ratio(numerator: float, denominator: float) -> float | None:
    return numerator / denominator if denominator else None


def per_layer(group: Group, block: dict, hosts: dict, plain_s: float, traced_s: float) -> dict:
    """``<layer>.<metric>`` readings of a traced, profiled, drained run."""
    workload, world = group.workload, group.world
    count = world.metrics.counters.get
    ops = block["completed"]
    out: dict[str, float | None] = {}

    for layer in HOST_LAYERS:
        out[f"{layer}.host_self_us_per_op"] = hosts[layer]["self_s"] * 1e6 / ops
        out[f"{layer}.calls_per_op"] = hosts[layer]["calls"] / ops
    for label, layer in WIRE_LABELS.items():
        out[f"{layer}.msgs_per_op"] = count(f"net.sent.{label}") / ops
        out[f"{layer}.bytes_per_op"] = count(f"net.bytes.{label}") / ops

    paths = critpath.summarize_deliveries(world.spans, "gdeliver", "gbcast")
    on_path, by_kind = paths.get("by_layer_ms", {}), paths.get("by_kind_ms", {})
    for label, layer in SPAN_LAYERS.items():
        out[f"{layer}.critpath_ms"] = on_path.get(label, 0.0)
    for kind in CRITPATH_KINDS:
        out[f"critpath.{kind}_ms"] = by_kind.get(kind, 0.0)
    out["abcast.ordering_wait_ms"] = paths.get("mean_ordering_wait_ms")

    out["sim.events_per_op"] = block["events"] / ops
    out["sim.host_events_per_s"] = block["events"] / plain_s
    out["sim.heap_compactions"] = world.scheduler.compactions

    dropped = world.metrics.counters.total("net.dropped.") + count("net.stale_incarnation_dropped")
    out["net.transport.dropped_share"] = dropped / count("net.sent")
    # 1.0 = each payload crosses the wire once per receiver, nothing else.
    out["net.transport.byte_amplification"] = block["wire_bytes_per_op"] / (
        workload.payload_bytes * (workload.members - 1)
    )
    out["net.reliable.retransmits_per_op"] = count("rc.retransmits") / ops
    out["net.reliable.segments_per_datagram"] = _ratio(
        count("rc.segments_coalesced"), count("rc.batches")
    )
    out["net.reliable.gap_notices"] = count("rc.gap_notices")

    out["broadcast.forwarded_per_op"] = count("rb.forwarded") / ops
    out["broadcast.repairs_per_op"] = (
        count("rb.relayed") + count("rb.suspect_floods") + count("rb.overlay_repairs")
    ) / ops
    sent_by = [count(f"net.bytes.sent.{pid}") for pid in group.pids]
    out["broadcast.origin_over_mean_bytes"] = max(sent_by) / statistics.fmean(sent_by)

    # ``consensus.decided_round_<r>`` counts an instance once, where its
    # round-r coordinator decided it.
    decided = world.metrics.counters.total("consensus.decided_round_")
    out["consensus.instances_per_op"] = decided / ops
    out["consensus.round0_share"] = _ratio(count("consensus.decided_round_0"), decided)
    out["consensus.msgs_per_decide"] = _ratio(count("consensus.messages"), decided)
    out["consensus.decide_ms_p50"] = critpath.summarize_decisions(world.spans).get(
        "p50_decide_ms"
    )
    out["abcast.ops_per_instance"] = _ratio(ops, decided)
    out["abcast.pipelined_share"] = _ratio(
        count("abcast.instances_pipelined"), count("abcast.instances")
    )
    out["abcast.pulls_per_op"] = count("abcast.pulls_sent") / ops
    out["gbcast.fast_path_share"] = _ratio(
        count("gbcast.delivered.fast"), count("gbcast.delivered")
    )
    out["gbcast.endstages_per_op"] = count("gbcast.endstages") / ops
    out["gbcast.conflicts_per_op"] = count("gbcast.conflicts_detected") / ops
    out["gbcast.fifo_inversions"] = block["fifo_inversions"]

    heartbeats, suppressed = count("fd.explicit_hb"), count("fd.suppressed")
    out["fd.explicit_hb_per_sim_s"] = heartbeats / (block["sim_end_ms"] / 1000.0)
    out["fd.suppressed_share"] = _ratio(suppressed, heartbeats + suppressed)
    out["fd.detection_ms"] = out["membership.rejoin_ms"] = None
    if workload.victim is not None:
        # The FD's own small-timeout suspicion of the victim; monitoring's
        # ``fd_suspicion`` record is the exclusion timeout, 2 s later.
        suspected = [
            record.time
            for record in world.trace.select(component="fd", event="suspect")
            if record.time >= workload.crash_ms and record.details.get("peer") == workload.victim
        ]
        out["fd.detection_ms"] = min(suspected) - workload.crash_ms if suspected else None
        rejoined = [
            at
            for actor in group.steady_actors()
            for at, view in group.views[actor]
            if at >= workload.recover_ms and workload.victim in view
        ]
        out["membership.rejoin_ms"] = min(rejoined) - workload.recover_ms if rejoined else None
    out["membership.views_installed"] = count("gm.views_installed")
    out["membership.state_transfers"] = count("gm.state_transfers")
    out["monitoring.suspicions"] = count("monitoring.fd_suspicions")
    out["monitoring.exclusions"] = count("monitoring.exclusions_requested")

    by_origin = block["sim_latency_p50_by_origin_ms"].values()
    out["driver.origin_p50_max_over_min"] = max(by_origin) / min(by_origin)
    out["driver.gen_late_ms_max"] = block["gen_late_ms_max"]
    out["driver.rerouted_ops"] = block["rerouted_ops"]
    out["trace.overhead_ratio"] = traced_s / plain_s
    out["trace.spans_per_op"] = len(world.spans) / ops
    return out
