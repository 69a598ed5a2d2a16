"""Soak tests: long random workloads with faults, validated by the
checker battery.

These complement the hypothesis property tests with larger, longer
scenarios: hundreds of messages, mixed conflict classes, minority
crashes, and a transient partition — asserting the full invariant set
(integrity, agreement, per-sender FIFO, conflict ordering).

Marked ``slow``: excluded from the default run (see ``addopts`` in
pyproject.toml); run them with ``pytest -m slow``.
"""

import pytest

from repro.checkers import (
    app_history,
    check_agreement,
    check_all,
    check_conflict_order,
    check_no_duplicates,
    check_prefix,
)
from repro.core.new_stack import StackConfig, build_new_group, enable_recovery
from repro.gbcast.conflict import ConflictRelation
from repro.net.topology import LinkModel
from repro.sim.world import World
from repro.workload.driver import run_gbcast_workload, schedule_broadcasts
from repro.workload.generators import FaultPlan, WorkloadSpec

from tests.conftest import new_group

pytestmark = pytest.mark.slow

RELATION = ConflictRelation.build(
    ["free", "grouped", "ordered"],
    [("ordered", "ordered"), ("ordered", "grouped"), ("grouped", "grouped")],
)

MIX = {"free": 0.6, "grouped": 0.25, "ordered": 0.15}


def soak(seed, count=3, crashes=0, partition=False, duration=1_500.0, rate=80.0):
    world, stacks, _ = new_group(count=count, seed=seed, conflict=RELATION)
    ops = WorkloadSpec(duration, rate, MIX, senders=count, seed=seed).generate()
    plan = None
    if crashes:
        plan = FaultPlan.minority_crashes(sorted(stacks), duration, crashes, seed=seed)
    if partition:
        pids = sorted(stacks)
        plan = plan or FaultPlan([])
        plan.events += FaultPlan.transient_partition(
            [pids[: count // 2 + 1], pids[count // 2 + 1 :]],
            start=duration * 0.3,
            length=duration * 0.2,
        ).events
    summary = run_gbcast_workload(world, stacks, ops, fault_plan=plan, timeout=600_000)
    assert summary["converged"], "workload did not converge"
    history = {pid: app_history(stacks[pid]) for pid in summary["alive"]}
    result = check_all(history, relation=RELATION)
    assert result, result.violations
    return world, stacks, summary


@pytest.mark.parametrize("seed", [101, 202, 303])
def test_soak_failure_free(seed):
    world, stacks, summary = soak(seed)
    assert summary["issued"] > 50


def test_soak_with_minority_crashes():
    world, stacks, summary = soak(404, count=5, crashes=2)
    assert len(summary["alive"]) == 3
    # Crashed processes' logs are prefixes-compatible with survivors
    # for the totally-ordered class.
    survivor = summary["alive"][0]
    ordered = lambda pid: [
        m for m in app_history(stacks[pid]) if m.msg_class == "ordered"
    ]
    for pid in sorted(stacks):
        if pid in summary["alive"]:
            continue
        crashed_log = ordered(pid)
        survivor_log = ordered(survivor)
        if crashed_log:
            assert check_prefix(crashed_log, survivor_log), (pid, crashed_log)


def test_soak_with_transient_partition():
    world, stacks, summary = soak(505, partition=True, duration=2_000.0, rate=50.0)
    # After healing, everyone converged; membership may or may not have
    # excluded the minority depending on timing — if it did, the view
    # sequence must still be identical at all alive members.
    views = {
        pid: [str(v) for v in stacks[pid].membership.view_history]
        for pid in summary["alive"]
        if stacks[pid].membership.view is not None
        and pid in stacks[pid].membership.current_members()
    }
    sequences = list(views.values())
    assert all(s == sequences[0] for s in sequences)


def test_soak_heavier_ordered_traffic():
    world, stacks, summary = soak(606, rate=120.0, duration=1_000.0)
    counters = world.metrics.counters
    # The mixed workload exercised both paths.
    assert counters.get("gbcast.delivered.fast") > 0
    assert counters.get("gbcast.endstages") > 0


def test_soak_crash_exclusion_rejoin_drains_every_rbcast_store():
    # Crash -> exclusion -> rejoin under load, then quiet: the high-water
    # check of rbcast's two stores.  A packet rbcast inside the rejoiner's
    # join window is never addressed to it; unless the rejoiner asks for
    # it, stability GC stalls group-wide and these stay non-empty for ever.
    config = StackConfig()
    world = World(seed=606, default_link=LinkModel(3.0, 8.0))
    stacks = build_new_group(world, 5, conflict=RELATION, config=config)
    enable_recovery(world, stacks, conflict=RELATION, config=config)
    world.start()
    # Four senders: the victim p04 never broadcasts.
    ops = WorkloadSpec(6_000.0, 60.0, MIX, senders=4, seed=606).generate()
    steady = sorted(stacks)[:4]
    schedule_broadcasts(
        world, ops,
        lambda sender, op: stacks[steady[sender]].gbcast.gbcast_payload(
            op.payload, op.msg_class
        ),
    )
    world.crash("p04", at=1_000.0)
    world.recover("p04", at=4_500.0)
    world.run_for(6_000.0)
    assert world.run_until(
        lambda: all(len(app_history(stacks[pid])) == len(ops) for pid in steady),
        timeout=600_000,
    ), "workload did not converge"
    # (Not check_all: per-sender FIFO across classes does not survive a
    # crash on 3-11 ms links — ROADMAP item 4, measured by the perf
    # benchmark as gbcast.fifo_inversions.)
    history = {pid: app_history(stacks[pid]) for pid in steady}
    for result in (
        check_no_duplicates(history),
        check_agreement(history),
        check_conflict_order(history, RELATION),
    ):
        assert result, result.violations
    assert any("p04" not in view for view in stacks["p00"].membership.view_history)
    assert sorted(stacks["p04"].membership.current_members()) == sorted(stacks)
    world.run_for(5_000.0)
    for pid, stack in stacks.items():
        assert stack.rbcast.seen_size() == 0, pid
        assert stack.rbcast.retained_size() == 0, pid
