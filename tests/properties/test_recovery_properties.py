"""Property-based tests for the crash-recovery subsystem.

Random crash→recover schedules (FaultPlan) must never violate the
delivery invariants: integrity, agreement among correct processes,
per-incarnation FIFO, and incarnation monotonicity (a dead incarnation's
messages never surface after its successor's).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkers import app_history, check_all
from repro.core.api import GroupCommunication
from repro.core.new_stack import StackConfig, enable_recovery
from repro.gbcast.conflict import RBCAST_ABCAST
from repro.monitoring.component import MonitoringPolicy
from repro.replication.state_machine import ActiveReplica, attach_active_replicas
from repro.workload.generators import FaultPlan

from tests.conftest import new_group, run_until


def _apply(state, command):
    return state + command, state + command


def _run_with_fault_plan(seed: int, plan: FaultPlan, count: int, horizon: float):
    """Replicated counter under ``plan``; traffic from p00 (never a victim)."""
    config = StackConfig(monitoring=MonitoringPolicy(exclusion_timeout=400.0))
    world, stacks, apis = new_group(count=5, seed=seed, config=config)
    replicas = attach_active_replicas(stacks, _apply, 0)

    def rebuild(pid, stack):
        apis[pid] = GroupCommunication(stack)
        replicas[pid] = ActiveReplica(stack, _apply, 0)

    enable_recovery(world, stacks, config=config, on_rebuild=rebuild)
    world.start()
    for i in range(count):
        t = 30.0 + i * (horizon / count)
        world.scheduler.at(
            t, lambda i=i: apis["p00"].abcast(("cmd", "client", i, i + 1))
        )
    plan.apply(world)
    healthy = sorted(set(stacks) - plan.crashed_pids() | plan.recovered_pids())
    converged = run_until(
        world,
        lambda: all(
            len(replicas[p].command_log) == count
            for p in healthy
            if not world.processes[p].crashed
        ),
        timeout=horizon + 60_000,
    )
    return world, stacks, replicas, converged


@given(
    seed=st.integers(0, 10_000),
    cycles=st.integers(1, 3),
    downtime=st.floats(120.0, 900.0),
)
@settings(max_examples=8, deadline=None)
def test_random_crash_recover_schedules_preserve_invariants(seed, cycles, downtime):
    # Victims drawn from p01..p04 so the command source p00 stays up;
    # at most a strict minority is ever down (quorum preserved).
    plan = FaultPlan.crash_recover_cycles(
        ["p01", "p02", "p03", "p04"], duration=2_000.0, cycles=cycles,
        downtime=downtime, seed=seed, max_concurrent_down=2,
    )
    world, stacks, replicas, converged = _run_with_fault_plan(
        seed, plan, count=8, horizon=2_500.0
    )
    assert converged

    # Replicated state identical at every non-crashed process — the
    # recovered ones received theirs via snapshot + post-rejoin traffic.
    alive = [p for p in stacks if not world.processes[p].crashed]
    states = {replicas[p].state for p in alive}
    assert len(states) == 1, {p: replicas[p].state for p in alive}

    # The full battery (integrity, agreement, per-incarnation FIFO,
    # incarnation monotonicity, conflict order) over never-crashed pids.
    untouched = sorted(set(stacks) - plan.crashed_pids())
    history = {p: app_history(stacks[p]) for p in untouched}
    result = check_all(history, relation=RBCAST_ABCAST)
    assert result, result.violations

    # A stale incarnation's messages never surface anywhere: every
    # process's history (including recovered ones) is incarnation-
    # monotonic per sender.
    everyone = {p: app_history(stacks[p]) for p in alive}
    from repro.checkers import check_incarnation_monotonic

    mono = check_incarnation_monotonic(everyone)
    assert mono, mono.violations


@given(seed=st.integers(0, 10_000))
@settings(max_examples=5, deadline=None)
def test_recovery_runs_are_reproducible(seed):
    plan = FaultPlan.minority_crashes(
        ["p01", "p02", "p03", "p04"], duration=800.0, count=1,
        seed=seed, recover_after=300.0,
    )

    def fingerprint():
        world, stacks, replicas, converged = _run_with_fault_plan(
            seed, plan, count=5, horizon=1_500.0
        )
        return (
            converged,
            {p: replicas[p].state for p in stacks},
            {p: [str(v) for v in stacks[p].membership.view_history] for p in stacks},
            world.metrics.counters.get("net.stale_incarnation_dropped"),
        )

    assert fingerprint() == fingerprint()


@given(
    seed=st.integers(0, 100_000),
    n=st.integers(3, 9),
    cycles=st.integers(1, 12),
    downtime=st.floats(10.0, 2_000.0),
)
@settings(max_examples=50, deadline=None)
def test_crash_recover_cycles_never_revokes_quorum(seed, n, cycles, downtime):
    """The generator itself guarantees a strict minority down at any
    instant, for any parameters."""
    pids = [f"p{i:02d}" for i in range(n)]
    plan = FaultPlan.crash_recover_cycles(
        pids, duration=3_000.0, cycles=cycles, downtime=downtime, seed=seed
    )
    down: set[str] = set()
    limit = max(1, (n - 1) // 2)
    for event in plan.events:
        if event.kind == "crash":
            down.add(event.target)
        elif event.kind == "recover":
            down.discard(event.target)
        assert len(down) <= limit
    # Every crash is eventually paired with a recover.
    assert plan.permanently_crashed_pids() == set()
    assert down == set()


@given(seed=st.integers(0, 100_000), downtime=st.floats(1.0, 500.0), gap=st.floats(0.0, 500.0))
@settings(max_examples=50, deadline=None)
def test_rolling_restart_never_overlaps_outages(seed, downtime, gap):
    pids = ["p00", "p01", "p02", "p03"]
    plan = FaultPlan.rolling_restart(pids, start=100.0, downtime=downtime, gap=gap)
    down: set[str] = set()
    for event in plan.events:
        if event.kind == "crash":
            down.add(event.target)
        else:
            down.discard(event.target)
        assert len(down) <= 1
    assert plan.recovered_pids() == set(pids)
