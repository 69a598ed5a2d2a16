"""Automatic minimisation of failing schedules.

Given a scenario whose execution violates an invariant, the shrinker
looks for a *smaller* scenario that still violates it — fewer fault
events, coarser (rounded-down) event times, fewer processes, a shorter
workload — because a 3-event repro at round timestamps is debuggable
where a 40-event fuzzer schedule is not.

Every pass is driven by an opaque ``reproduces(config) -> bool``
predicate, so the passes are testable with synthetic predicates (see
``tests/properties/test_explore_shrinking.py``) and the explorer plugs
in "re-run the scenario and check the same invariant fails".  All passes
are deterministic and only ever propose candidates that are ≤ the
current best in their dimension, so the result is monotonically
shrinking; a shared attempt budget bounds total re-execution cost.

Past-time safety: rounding an event time down can land it behind other
events or (after process removal changes timing) behind the clock —
``World`` clamps past fault times to *now* deterministically, so every
candidate the shrinker proposes is executable.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable

from repro.explore.scenario import ScenarioConfig
from repro.sim.world import make_pid
from repro.workload.generators import FaultEvent, FaultPlan

Predicate = Callable[[ScenarioConfig], bool]

#: Time grids tried when coarsening event times, coarsest first.
TIME_GRIDS = (1_000.0, 100.0, 10.0, 1.0)
#: Never shrink a group below this size (2 processes degenerate:
#: any crash kills the majority).
MIN_PROCESSES = 3
#: Shortest workload window worth keeping (ms).
MIN_DURATION = 250.0


class _Budget:
    """Shared attempt counter across all passes."""

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.used = 0

    def spent(self) -> bool:
        return self.used >= self.limit

    def try_one(self, predicate: Predicate, candidate: ScenarioConfig) -> bool:
        if self.spent():
            return False
        self.used += 1
        return predicate(candidate)


def _floor_to(value: float, grid: float) -> float:
    return max(0.0, (value // grid) * grid)


def restrict_plan(plan: FaultPlan, pids: set[str]) -> FaultPlan:
    """Drop events targeting processes outside ``pids``; prune partition
    groups to surviving members and drop degenerate partitions."""
    events: list[FaultEvent] = []
    for event in plan.events:
        if event.kind in ("crash", "recover"):
            if event.target in pids:
                events.append(event)
            continue
        if event.kind == "partition":
            groups = [
                [p for p in group if p in pids] for group in event.target
            ]
            groups = [g for g in groups if g]
            if len(groups) < 2:
                continue  # everyone in one island: not a partition
            events.append(replace(event, target=groups))
            continue
        if event.kind in ("cut", "mend"):
            if pids.issuperset(event.target):
                events.append(event)
            continue
        events.append(event)  # heal
    # A heal without any preceding partition is a harmless no-op; keep it
    # (removing it is the event-removal pass's job, under the predicate).
    return FaultPlan(events)


def shrink_events(
    config: ScenarioConfig, reproduces: Predicate, budget: _Budget
) -> ScenarioConfig:
    """Greedy delta-debugging of the fault plan: drop whole plan first,
    then each event, to a fixed point."""
    best = config
    if best.plan.events:
        candidate = best.with_plan(FaultPlan())
        if budget.try_one(reproduces, candidate):
            return candidate
    changed = True
    while changed and not budget.spent():
        changed = False
        events = best.plan.events
        for i in range(len(events)):
            candidate = best.with_plan(FaultPlan(events[:i] + events[i + 1 :]))
            if budget.try_one(reproduces, candidate):
                best = candidate
                changed = True
                break
    return best


def shrink_times(
    config: ScenarioConfig, reproduces: Predicate, budget: _Budget
) -> ScenarioConfig:
    """Round event times *down* to the coarsest grid that still fails.

    Tries whole-plan flooring per grid first (cheap, usually enough),
    then per-event flooring for anything still at a fine timestamp.
    Times only ever decrease, so the shrunk plan's duration is ≤ the
    original's.
    """
    best = config

    def floored(plan: FaultPlan, grid: float, only: int | None = None) -> FaultPlan:
        out = []
        for index, event in enumerate(plan.events):
            if only is None or index == only:
                out.append(replace(event, at=_floor_to(event.at, grid)))
            else:
                out.append(event)
        return FaultPlan(out)

    for grid in TIME_GRIDS:
        plan = floored(best.plan, grid)
        if plan.events == best.plan.events:
            continue
        candidate = best.with_plan(plan)
        if budget.try_one(reproduces, candidate):
            best = candidate
            break
    for index in range(len(best.plan.events)):
        for grid in TIME_GRIDS:
            plan = floored(best.plan, grid, only=index)
            if plan.events == best.plan.events:
                break  # already on this grid or coarser
            candidate = best.with_plan(plan)
            if budget.try_one(reproduces, candidate):
                best = candidate
                break
    return best


def shrink_processes(
    config: ScenarioConfig, reproduces: Predicate, budget: _Budget
) -> ScenarioConfig:
    """Remove the highest-numbered process while the failure reproduces.

    The fault plan is restricted to the surviving pids (the canonical
    naming ``p00..pNN`` means dropping a process always drops the last
    name).
    """
    best = config
    while best.processes > MIN_PROCESSES and not budget.spent():
        survivors = {make_pid(i) for i in range(best.processes - 1)}
        candidate = replace(
            best,
            processes=best.processes - 1,
            plan=restrict_plan(best.plan, survivors),
        )
        if not budget.try_one(reproduces, candidate):
            break
        best = candidate
    return best


def shrink_duration(
    config: ScenarioConfig, reproduces: Predicate, budget: _Budget
) -> ScenarioConfig:
    """Halve the workload window while the failure reproduces."""
    best = config
    while best.duration / 2 >= MIN_DURATION and not budget.spent():
        candidate = replace(best, duration=best.duration / 2)
        if not budget.try_one(reproduces, candidate):
            break
        best = candidate
    return best


PASSES = (shrink_events, shrink_processes, shrink_times, shrink_duration)


def shrink_scenario(
    config: ScenarioConfig,
    reproduces: Predicate,
    max_attempts: int = 80,
) -> tuple[ScenarioConfig, int]:
    """Run all passes round-robin to a fixed point (or attempt budget).

    Returns ``(shrunk_config, attempts_used)``.  The result is guaranteed
    ≤ the input in fault-event count, process count, plan duration and
    workload duration; if ``reproduces(config)`` held before, it holds
    for the result (only reproducing candidates are ever accepted).
    """
    budget = _Budget(max_attempts)
    best = config
    changed = True
    while changed and not budget.spent():
        changed = False
        for shrink_pass in PASSES:
            smaller = shrink_pass(best, reproduces, budget)
            if smaller is not best:
                best = smaller
                changed = True
    return best, budget.used
