"""End-to-end crash-recovery scenarios for the new architecture.

The acceptance scenario of the crash-recovery subsystem: a member
crashes mid-traffic, recovers as a fresh incarnation, rejoins through
the abcast-based membership, has its application state restored by the
state-transfer snapshot, and converges with the survivors — while every
stale-incarnation datagram is fenced at the transport.
"""

from __future__ import annotations

from repro.checkers import app_history, check_all
from repro.core.api import GroupCommunication
from repro.core.new_stack import StackConfig, build_new_group, enable_recovery
from repro.gbcast.conflict import RBCAST_ABCAST
from repro.monitoring.component import MonitoringPolicy
from repro.net.topology import LinkModel
from repro.replication.state_machine import ActiveReplica, attach_active_replicas
from repro.sim.world import World
from repro.workload.generators import FaultPlan

from tests.conftest import new_group, run_until


def _apply(state, command):
    op, amount = command
    assert op == "add"
    return state + amount, state + amount


def _run_acceptance_scenario(seed: int):
    """Crash p02 at t=200ms, recover it at t=800ms, under a steady
    replicated-command stream on a WAN-ish (3-11ms) link."""
    config = StackConfig(monitoring=MonitoringPolicy(exclusion_timeout=5_000.0))
    world = World(seed=seed, default_link=LinkModel(3.0, 8.0))
    stacks = build_new_group(world, 3, config=config)
    apis = {pid: GroupCommunication(s) for pid, s in stacks.items()}
    replicas = attach_active_replicas(stacks, _apply, 0)

    def rebuild(pid, stack):
        apis[pid] = GroupCommunication(stack)
        replicas[pid] = ActiveReplica(stack, _apply, 0)

    enable_recovery(world, stacks, config=config, on_rebuild=rebuild)
    world.start()

    times = list(range(20, 1380, 40)) + [795.0, 798.0]
    for i, t in enumerate(sorted(times)):
        world.scheduler.at(
            t, lambda i=i: apis["p00"].abcast(("cmd", "client", i, ("add", i + 1)))
        )
    world.crash("p02", at=200.0)
    world.recover("p02", at=800.0)

    count = len(times)
    converged = run_until(
        world,
        lambda: all(len(r.command_log) == count for r in replicas.values()),
        timeout=60_000,
    )
    return world, stacks, apis, replicas, converged


def test_crash_recover_mid_traffic_converges_and_fences_stale_traffic():
    world, stacks, apis, replicas, converged = _run_acceptance_scenario(seed=7)
    assert converged

    # All three processes end in the same view (p02 was never excluded:
    # it recovered within the exclusion timeout and was re-admitted).
    views = {pid: str(stacks[pid].membership.view) for pid in stacks}
    assert len(set(views.values())) == 1
    assert "p02" in stacks["p00"].membership.view
    assert world.metrics.counters.get("gm.readmissions") >= 1
    # No view change anywhere: re-admission keeps the original view.
    assert stacks["p00"].membership.view.id == 0
    assert [str(v) for v in stacks["p00"].membership.view_history] == ["v0[p00;p01;p02]"]

    # Identical state-machine state everywhere — including the recovered
    # process, whose pre-crash commands arrived via the state snapshot.
    states = {pid: r.state for pid, r in replicas.items()}
    logs = {pid: r.command_log for pid, r in replicas.items()}
    assert len(set(states.values())) == 1
    assert all(log == logs["p00"] for log in logs.values())
    assert world.metrics.counters.get("replica.snapshots_installed") >= 1

    # Survivors' full delivery histories satisfy the whole battery.
    history = {pid: app_history(stacks[pid]) for pid in ("p00", "p01")}
    result = check_all(history, relation=RBCAST_ABCAST, total_order=True)
    assert result, result.violations

    # Datagrams in flight across the recovery instant were addressed to
    # the dead incarnation and must have been fenced.
    assert world.metrics.counters.get("net.stale_incarnation_dropped") > 0
    assert world.process("p02").incarnation == 1
    assert world.metrics.counters.get("world.recoveries") == 1


def test_acceptance_scenario_is_deterministic():
    def fingerprint():
        world, stacks, apis, replicas, converged = _run_acceptance_scenario(seed=7)
        assert converged
        return (
            {pid: r.state for pid, r in replicas.items()},
            {pid: [str(v) for v in stacks[pid].membership.view_history] for pid in stacks},
            [str(m.id) for m in app_history(stacks["p00"])],
            world.metrics.counters.get("net.stale_incarnation_dropped"),
            world.now,
        )

    assert fingerprint() == fingerprint()


def test_excluded_process_recovers_and_rejoins_with_view_change():
    # Here the outage outlives the exclusion timeout: p02 is excluded
    # (view change), then recovers, rejoins via a sponsor, and installs
    # the current view through state transfer.
    config = StackConfig(monitoring=MonitoringPolicy(exclusion_timeout=300.0))
    world, stacks, apis = new_group(seed=11, config=config)
    enable_recovery(
        world,
        stacks,
        config=config,
        on_rebuild=lambda pid, s: apis.__setitem__(pid, GroupCommunication(s)),
    )
    for i in range(4):
        apis["p01"].abcast(("pre", i))
    world.crash("p02", at=150.0)
    survivors = ("p00", "p01")
    assert run_until(
        world,
        lambda: all("p02" not in stacks[p].membership.view for p in survivors),
        timeout=30_000,
    )
    world.recover("p02")
    assert run_until(
        world,
        lambda: all("p02" in (stacks[p].membership.view or ()) for p in stacks),
        timeout=30_000,
    )
    apis["p00"].abcast("post-rejoin")
    assert run_until(
        world,
        lambda: all("post-rejoin" in a.delivered_payloads() for a in apis.values()),
        timeout=30_000,
    )
    # Survivors installed identical view sequences: v1 (remove), v2 (join).
    h0 = [str(v) for v in stacks["p00"].membership.view_history]
    h1 = [str(v) for v in stacks["p01"].membership.view_history]
    assert h0 == h1
    assert stacks["p00"].membership.view.id == 2
    assert str(stacks["p02"].membership.view) == str(stacks["p00"].membership.view)
    history = {pid: app_history(stacks[pid]) for pid in survivors}
    assert check_all(history, relation=RBCAST_ABCAST)


def test_rolling_restart_cycles_every_member_through_recovery():
    # The classic rolling-upgrade schedule: each process (including the
    # primary) is crashed, excluded, recovered and rejoined in turn.
    config = StackConfig(monitoring=MonitoringPolicy(exclusion_timeout=300.0))
    world, stacks, apis = new_group(seed=13, config=config)
    enable_recovery(
        world,
        stacks,
        config=config,
        on_rebuild=lambda pid, s: apis.__setitem__(pid, GroupCommunication(s)),
    )
    plan = FaultPlan.rolling_restart(list(stacks), start=300.0, downtime=600.0, gap=1_200.0)
    plan.apply(world)
    assert plan.recovered_pids() == {"p00", "p01", "p02"}
    assert plan.permanently_crashed_pids() == set()
    world.run_for(7_000.0)
    assert run_until(
        world,
        lambda: all(
            s.membership.view is not None and len(s.membership.view) == 3
            for s in stacks.values()
        ),
        timeout=60_000,
    )
    apis["p01"].abcast("after-rolling-restart")
    assert run_until(
        world,
        lambda: all("after-rolling-restart" in a.delivered_payloads() for a in apis.values()),
        timeout=30_000,
    )
    views = {str(s.membership.view) for s in stacks.values()}
    assert len(views) == 1
    # 3 exclusions + 3 rejoins.
    assert stacks["p00"].membership.view.id == 6
    assert all(world.processes[pid].incarnation == 1 for pid in stacks)


def test_recovered_replica_keeps_exactly_once_dedup():
    # The executed-request table survives recovery via the snapshot, so a
    # client retry that straddles the crash is not executed twice.
    config = StackConfig(monitoring=MonitoringPolicy(exclusion_timeout=5_000.0))
    world, stacks, apis = new_group(seed=17, config=config)
    replicas = attach_active_replicas(stacks, _apply, 0)

    def rebuild(pid, stack):
        apis[pid] = GroupCommunication(stack)
        replicas[pid] = ActiveReplica(stack, _apply, 0)

    enable_recovery(world, stacks, config=config, on_rebuild=rebuild)
    apis["p00"].abcast(("cmd", "client", 0, ("add", 10)))
    assert run_until(
        world, lambda: all(r.state == 10 for r in replicas.values()), timeout=30_000
    )
    world.crash("p02")
    world.run_for(100.0)
    world.recover("p02")
    assert run_until(
        world,
        lambda: world.metrics.counters.get("replica.snapshots_installed") >= 1,
        timeout=30_000,
    )
    # Duplicate broadcast of the same request id: must stay executed-once.
    apis["p01"].abcast(("cmd", "client", 0, ("add", 10)))
    apis["p01"].abcast(("cmd", "client", 1, ("add", 5)))
    assert run_until(
        world, lambda: all(r.state == 15 for r in replicas.values()), timeout=30_000
    )
    assert all(r.command_log == [("add", 10), ("add", 5)] for r in replicas.values())


def test_crashed_primary_recovering_before_exclusion_is_readmitted():
    """Re-admission must not depend on the view primary being alive.

    When the *primary* crashes and recovers before the monitoring
    component excludes it, the view never changes — so the primary of
    the view at the JOIN's a-delivery is the recovering process itself.
    The snapshot sponsor has to fall back to the next member, or the
    rejoin loops forever (found by the schedule explorer, seed 37).
    """
    config = StackConfig(monitoring=MonitoringPolicy(exclusion_timeout=5_000.0))
    world = World(seed=21, default_link=LinkModel(1.0, 2.0))
    stacks = build_new_group(world, 3, config=config)
    assert stacks["p00"].membership.view.primary == "p00"
    enable_recovery(world, stacks, config=config)
    world.start()

    for i, t in enumerate(range(20, 1200, 40)):
        world.scheduler.at(
            t, lambda i=i: stacks["p01"].gbcast.gbcast_payload(("op", i), "abcast")
        )
    world.crash("p00", at=200.0)
    world.recover("p00", at=700.0)

    # The recovered primary re-anchors: snapshot installed, back in a
    # view that still has id 0 (no exclusion ever happened).
    assert run_until(
        world,
        lambda: stacks["p00"].process.incarnation == 1
        and stacks["p00"].membership.current_view() is not None,
        timeout=30_000,
    )
    assert world.metrics.counters.get("gm.readmissions") >= 1
    assert stacks["p00"].membership.view.id == 0
    assert "p00" in stacks["p00"].membership.view

    # And it converges with the survivors on the post-crash traffic.
    count = 30  # ops issued from t=20 to t=1180
    assert run_until(
        world,
        lambda: all(
            len(app_history(stacks[pid])) == count for pid in ("p01", "p02")
        )
        and len(app_history(stacks["p00"])) > 0,
        timeout=60_000,
    )
    outcome = check_all(
        {pid: app_history(stacks[pid]) for pid in ("p01", "p02")},
        relation=RBCAST_ABCAST,
    )
    assert outcome.ok, outcome.violations
