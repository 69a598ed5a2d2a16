"""Deterministic execution of one exploration scenario.

``run_scenario`` builds a world from a :class:`ScenarioConfig`, wires the
full online-observer battery onto every stack (re-attaching on crash
recovery), replays the generated workload and fault plan, and runs to
quiescence under an event budget.  The outcome is a :class:`RunResult`
whose **fingerprint** is a stable hash of everything observable — per
actor delivery streams, view histories, final simulated time and event
count — so the same config always reproduces byte-identically, which is
the contract shrinking and ``--replay`` stand on.

Safety is checked in two phases:

* **online** — the :class:`ObserverPanel` fails fast mid-run on the
  first violated invariant (order, agreement-prefix, FIFO, duplicates,
  incarnations, views), over every actor's full streams;
* **post-hoc** — after quiescence, uniform agreement alone over the
  processes that never crashed: a completeness property, which only
  makes sense once the run has settled.  A run that did not converge
  while a live member's atomic broadcast still waits for a decided body
  has not settled: it is reported unconverged, not as an agreement
  violation, with the history difference and every live member's
  ``waiting_on()`` in its ``stats``.  A run that converged, or went
  quiet with nobody waiting, and whose histories differ fails as
  ``agreement``.

``mutation`` deliberately injects a bug into one process's stack — the
self-test proving the harness detects, shrinks and replays real ordering
bugs (``tests/explore/test_explorer_detects.py``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.checkers import InvariantViolation, app_history, check_agreement
from repro.core.new_stack import build_new_group, enable_recovery
from repro.explore.observers import ObserverPanel
from repro.explore.scenario import ScenarioConfig
from repro.sim.randomness import sha256
from repro.sim.world import World
from repro.workload.driver import schedule_broadcasts
from repro.workload.generators import explore_mix

#: Extra simulated ms past the last scheduled op/fault before the
#: convergence phase starts looking for quiescence.
HORIZON_MARGIN = 50.0
#: Slice width of the quiescence phase (progress-check granularity).
SLICE_MS = 100.0


@dataclass
class RunResult:
    """Outcome of one scenario execution."""

    violation: dict | None
    fingerprint: str
    converged: bool
    events: int
    sim_time: float
    deliveries: int
    issued: int
    budget_exhausted: bool = False
    stats: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.violation is None

    @property
    def verdict(self) -> str | None:
        """The violated invariant, ``"unconverged"``, or None when clean
        and converged."""
        if self.violation is not None:
            return self.violation["invariant"]
        return None if self.converged else "unconverged"

    def to_json_obj(self) -> dict:
        return {
            "violation": self.violation,
            "fingerprint": self.fingerprint,
            "converged": self.converged,
            "events": self.events,
            "sim_time": self.sim_time,
            "deliveries": self.deliveries,
            "issued": self.issued,
            "budget_exhausted": self.budget_exhausted,
            "stats": self.stats,
        }


def _fingerprint(panel: ObserverPanel, world: World, violation: dict | None) -> str:
    payload = {
        "app": {a: panel.app_log[a] for a in sorted(panel.app_log)},
        "abcast": {a: panel.abcast_log[a] for a in sorted(panel.abcast_log)},
        "views": {a: panel.view_log[a] for a in sorted(panel.view_log)},
        "now": repr(world.now),
        "events": world.scheduler.events_processed,
        "violation": None
        if violation is None
        else [violation["invariant"], violation["actor"], violation["detail"]],
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return sha256(canonical.encode()).hexdigest()


# ----------------------------------------------------------------------
# Deliberate bug injection (mutation testing of the harness itself)
# ----------------------------------------------------------------------
def _mutate_reorder_conflicting(stacks, relation) -> None:
    """Victim delivers one conflicting pair in swapped order.

    The first total-order-class application message is held back (the
    protocol's re-delivery attempts for it are swallowed too) and
    released right after the next *conflicting* message — every other
    process delivers that pair in the agreed order, so the swapped pair
    is an ordering inversion the conflict-order observer must flag.
    Commuting messages pass through while holding: swapping with those
    would be legal.
    """
    victim = stacks[sorted(stacks)[0]]
    gbcast = victim.gbcast
    original = gbcast._deliver
    state = {"held": None, "armed": True}

    def deliver(message, path):
        held = state["held"]
        if held is not None:
            if held[0].id == message.id:
                return  # swallow re-deliveries of the held message
            if relation.conflicts(message.msg_class, held[0].msg_class):
                state["held"] = None
                state["armed"] = False
                original(message, path)
                original(*held)
                gbcast._deliver = original
                return
            original(message, path)
            return
        if state["armed"] and relation.is_total_order_class(message.msg_class):
            state["held"] = (message, path)
            return
        original(message, path)

    gbcast._deliver = deliver


def _mutate_skip_delivery(stacks, relation) -> None:
    """Victim silently never delivers one conflicting-class message —
    an agreement violation the post-hoc check must flag."""
    victim = stacks[sorted(stacks)[0]]
    gbcast = victim.gbcast
    original = gbcast._deliver
    state = {"dropped": None}

    def deliver(message, path):
        if state["dropped"] is None and relation.is_total_order_class(
            message.msg_class
        ):
            state["dropped"] = message.id
        if message.id == state["dropped"]:
            gbcast._delivered.add(message.id)
            gbcast._pending.pop(message.id, None)
            return
        original(message, path)

    gbcast._deliver = deliver


MUTATIONS = {
    "reorder_conflicting": _mutate_reorder_conflicting,
    "skip_delivery": _mutate_skip_delivery,
}


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def build_world(config: ScenarioConfig, trace: bool = False):
    """World + stacks + observer panel for ``config`` (faults applied)."""
    relation = config.conflict_relation()
    world = World(seed=config.seed, default_link=config.link, trace_enabled=trace)
    stacks = build_new_group(
        world, config.processes, conflict=relation, config=config.stack
    )
    panel = ObserverPanel(
        relation,
        check_fifo=config.fifo_checkable(),
        check_incarnation=config.incarnation_checkable(),
    )
    panel.attach_group(stacks)
    if config.plan.recovered_pids():
        enable_recovery(
            world,
            stacks,
            conflict=relation,
            config=config.stack,
            on_rebuild=lambda pid, stack: panel.attach(stack, late=True),
        )
    if config.mutation is not None:
        try:
            MUTATIONS[config.mutation](stacks, relation)
        except KeyError:
            raise ValueError(f"unknown mutation {config.mutation!r}") from None
    return world, stacks, panel


def run_scenario(config: ScenarioConfig, trace: bool = False):
    """Execute ``config`` deterministically; returns (RunResult, world)."""
    world, stacks, panel = build_world(config, trace=trace)
    pids = sorted(stacks)
    issued: list[tuple[str, object]] = []

    def send(sender_index: int, op) -> None:
        pid = pids[sender_index % len(pids)]
        if world.processes[pid].crashed:
            return
        issued.append((pid, op))
        # ``stacks`` is updated in place by the recovery factory, so a
        # recovered sender broadcasts through its fresh incarnation.
        stacks[pid].gbcast.gbcast_payload(op.payload, op.msg_class)

    ops = explore_mix(
        config.duration,
        config.rate,
        config.processes,
        config.class_weights(),
        seed=config.seed,
        payload_bytes=config.payload_bytes,
    )
    schedule_broadcasts(world, ops, send)
    config.plan.apply(world)

    never_crashed = set(pids) - config.plan.crashed_pids()
    horizon = max(config.duration, config.plan.duration()) + HORIZON_MARGIN
    budget = config.budget_events
    violation: dict | None = None
    converged = False
    budget_exhausted = False

    def target_payloads() -> set:
        return {op.payload for pid, op in issued if pid in never_crashed}

    def participants() -> list[str]:
        out = []
        for pid in sorted(never_crashed):
            view = stacks[pid].membership.current_view()
            if view is not None and pid in view:
                out.append(pid)
        return out

    def is_converged() -> bool:
        target = target_payloads()
        for pid in participants():
            if not target <= {m.payload for m in app_history(stacks[pid])}:
                return False
        return True

    try:
        ran = world.run_for(horizon, max_events=budget)
        # Quiescence phase: converge AND go quiet for quiet_window ms (a
        # late rbcast relay or a recovering process may still be catching
        # up right after the nominal target is reached).
        deadline = world.now + config.quiesce_timeout
        last_progress = panel.progress()
        quiet_since = world.now
        while world.now < deadline:
            if ran >= budget:
                budget_exhausted = True
                break
            ran += world.run_for(SLICE_MS, max_events=budget - ran)
            progress = panel.progress()
            if progress != last_progress:
                last_progress = progress
                quiet_since = world.now
            if is_converged() and world.now - quiet_since >= config.quiet_window:
                converged = True
                break
    except InvariantViolation as exc:
        violation = {
            "invariant": exc.invariant,
            "actor": exc.actor,
            "detail": exc.detail,
            "time": world.now,
            "phase": "online",
        }

    live = {pid: stack for pid, stack in sorted(stacks.items()) if not stack.process.crashed}
    # What each live member's atomic broadcast waits for: decided ids
    # whose bodies it lacks, each with what named it.
    blocked = {
        pid: {
            str(mid): str(namer) if namer else "decision"
            for mid, namer in sorted(stack.abcast.waiting_on().items())
        }
        for pid, stack in live.items()
    }
    posthoc = None
    if violation is None:
        violation = _posthoc_agreement(stacks, participants())
        if violation is not None and not converged and any(blocked.values()):
            # Histories that never settled: a stall, not a divergence.
            posthoc, violation = violation["detail"], None

    result = RunResult(
        violation=violation,
        fingerprint=_fingerprint(panel, world, violation),
        converged=converged and violation is None,
        events=world.scheduler.events_processed,
        sim_time=world.now,
        deliveries=panel.deliveries,
        issued=len(issued),
        budget_exhausted=budget_exhausted,
        stats={
            "endstages": world.metrics.counters.get("gbcast.endstages"),
            "views_installed": world.metrics.counters.get("gm.views_installed"),
            "recoveries": world.metrics.counters.get("world.recoveries"),
            "clamped_faults": world.metrics.counters.get("world.fault_past_clamped"),
            # Who was blind to whom when the run ended (the repro file
            # carries it): per live process its suspects, the member it
            # regards as watcher and whom it times out first-hand.
            "fd": {
                pid: {
                    "suspects": sorted(stack.suspicion_monitor.suspects),
                    "watcher": stack.suspicion_monitor.watcher,
                    "first_hand": sorted(stack.suspicion_monitor.first_hand),
                }
                for pid, stack in live.items()
            },
            "blocked": blocked,
            # The participants' history difference of an unconverged run.
            "posthoc": posthoc,
        },
    )
    return result, world


def _posthoc_agreement(stacks, participants: list[str]) -> dict | None:
    """Uniform agreement over the settled participants; None when clean.

    Every other invariant was checked online over every actor's full
    stream, a superset of the participants' histories."""
    outcome = check_agreement({pid: app_history(stacks[pid]) for pid in participants})
    if outcome.ok:
        return None
    return {
        "invariant": "agreement",
        "actor": "-",
        "detail": "; ".join(outcome.violations[:3]),
        "time": None,
        "phase": "posthoc",
    }
