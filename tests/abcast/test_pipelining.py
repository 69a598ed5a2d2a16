"""Windowed consensus pipelining in atomic broadcast (W > 1).

Covers the safety story of ``repro.abcast.consensus_based``'s epoch
rule — total order and agreement with concurrent in-flight instances,
membership changes voiding stale instances — plus the two shape claims
of the performance work: under a bursty workload W=4 beats W=1 on
a-delivery latency, and the whole thing stays bit-for-bit deterministic
(including across crash recovery).
"""

from __future__ import annotations

import pytest

from repro.checkers import app_history, check_all
from repro.core.api import GroupCommunication
from repro.core.new_stack import StackConfig, build_new_group, enable_recovery
from repro.gbcast.conflict import RBCAST_ABCAST
from repro.monitoring.component import MonitoringPolicy
from repro.net.topology import LinkModel
from repro.replication.state_machine import ActiveReplica, attach_active_replicas
from repro.sim.world import World

from tests.conftest import new_group, run_until


def pipelined_group(count=3, seed=1, window=4, max_batch=4, link=None, **cfg_kwargs):
    config = StackConfig(abcast_window=window, abcast_max_batch=max_batch, **cfg_kwargs)
    world = World(seed=seed, default_link=link or LinkModel(1.0, 2.0))
    stacks = build_new_group(world, count, config=config)
    world.start()
    return world, stacks


def logs(stacks):
    return {
        pid: [m.payload for m in s.abcast.delivered_log if not m.msg_class.startswith("_")]
        for pid, s in stacks.items()
    }


def bcast(stacks, pid, payload):
    proc = stacks[pid].process
    stacks[pid].abcast.abcast(proc.msg_ids.message(payload))


def test_window_must_be_positive():
    world = World(seed=1)
    with pytest.raises(ValueError):
        build_new_group(world, 3, config=StackConfig(abcast_window=0))


def test_pipelined_total_order_with_concurrent_senders():
    world, stacks = pipelined_group(seed=2)
    for i in range(10):
        for pid in stacks:
            bcast(stacks, pid, f"{pid}:{i}")
    expected = 10 * len(stacks)
    assert run_until(
        world,
        lambda: all(len(log) == expected for log in logs(stacks).values()),
        timeout=30_000,
    )
    orders = list(logs(stacks).values())
    assert all(order == orders[0] for order in orders)
    # The burst actually used the window: instances overlapped.
    assert world.metrics.counters.get("abcast.instances_pipelined") > 0
    assert world.metrics.counters.get("abcast.epoch_bumps") == 0


def test_pipelined_delivery_survives_lossy_links():
    world, stacks = pipelined_group(
        seed=3, link=LinkModel(1.0, 2.0, drop_prob=0.1, dup_prob=0.1)
    )
    for i in range(12):
        bcast(stacks, "p00", i)
    assert run_until(
        world, lambda: all(len(log) == 12 for log in logs(stacks).values()), timeout=60_000
    )
    world.run_for(2_000.0)
    for log in logs(stacks).values():
        assert sorted(log) == list(range(12))


def test_membership_change_under_pipelining_bumps_epoch():
    # A member is excluded (a serial-class ctl op rides abcast) while a
    # bursty workload keeps the window full.  The epoch bump must void
    # stale instances identically everywhere: survivors converge on one
    # view and one totally-ordered history, nothing lost or duplicated.
    config = StackConfig(monitoring=MonitoringPolicy(exclusion_timeout=300.0))
    world, stacks, apis = new_group(seed=11, config=config)
    for i in range(16):
        world.scheduler.at(float(10 + 15 * i), lambda i=i: apis["p00"].abcast(("m", i)))
        world.scheduler.at(float(12 + 15 * i), lambda i=i: apis["p01"].abcast(("n", i)))
    world.crash("p02", at=120.0)
    survivors = ("p00", "p01")
    assert run_until(
        world,
        lambda: all("p02" not in stacks[p].membership.view for p in survivors),
        timeout=30_000,
    )
    assert run_until(
        world,
        lambda: all(len(apis[p].delivered_payloads()) >= 32 for p in survivors),
        timeout=60_000,
    )
    # The exclusion ctl op bumped the epoch at every surviving process.
    assert world.metrics.counters.get("abcast.epoch_bumps") >= len(survivors)
    assert all(stacks[p].abcast.epoch >= 1 for p in survivors)
    history = {pid: app_history(stacks[pid]) for pid in survivors}
    result = check_all(history, relation=RBCAST_ABCAST, total_order=True)
    assert result, result.violations


def test_a_decided_batch_behind_a_membership_op_is_voided_and_reproposed(monkeypatch):
    # The epoch rule on its own: every member already holds the decision
    # of (0, 1) when (0, 0)'s membership op is applied.  No sampled
    # schedule reaches this (round 0 of (0, 1) waits for its coordinator,
    # which proposes nothing while a ctl op is pending), so the bodies
    # are disseminated with proposals held back and both decisions are
    # handed to ``_on_decide`` directly.
    world, stacks = pipelined_group(count=4, seed=5)
    world.run_for(50.0)
    for stack in stacks.values():
        monkeypatch.setattr(stack.abcast, "_maybe_start_instances", lambda: None)
    stacks["p00"].membership.remove("p03")
    bcast(stacks, "p01", "m")
    assert run_until(world, lambda: all(len(s.abcast._pending) == 2 for s in stacks.values()))
    pending = stacks["p00"].abcast._pending.values()
    (ctl,) = [msg for msg in pending if msg.msg_class.startswith("_")]
    (body,) = [msg for msg in pending if msg.payload == "m"]
    for stack in stacks.values():
        stack.abcast._on_decide((0, 1), ("p01", (body.id,)))
    monkeypatch.undo()
    decided = []
    stacks["p00"].consensus.on_decide(lambda key, value: decided.append((key, value)))
    for stack in stacks.values():
        stack.abcast._on_decide((0, 0), ("p00", (ctl.id,)))

    survivors = ("p00", "p01", "p02")
    assert run_until(world, lambda: all(logs({p: stacks[p]}) == {p: ["m"]} for p in survivors))
    world.run_for(500.0)
    # Every member that applied the op voided the one decided batch.
    assert world.metrics.counters.get("abcast.instances_voided") == 4
    assert all(stacks[p].abcast.epoch == 1 for p in survivors)
    # The voided batch's message was proposed again, in the new epoch.
    assert [key for key, (_proposer, ids) in decided if body.id in ids] == [(1, 0)]
    for pid in survivors:
        ids = [msg.id for msg in stacks[pid].abcast.delivered_log]
        assert ids == [ctl.id, body.id], pid


def test_join_under_pipelining_state_transfer_carries_epoch():
    # A joiner's snapshot must carry (epoch, next_instance), not just an
    # instance number, or it would apply batches at the wrong position.
    from repro.sim.world import add_joiner

    config = StackConfig(abcast_window=4, abcast_max_batch=4)
    world, stacks, apis = new_group(seed=19, config=config)
    for i in range(8):
        apis["p00"].abcast(("pre", i))
    world.run_for(400.0)
    joiner = add_joiner(world, stacks, config=config)
    apis[joiner.pid] = GroupCommunication(joiner)
    world.start()
    joiner.membership.request_join("p00")
    assert run_until(
        world,
        lambda: all("p03" in (s.membership.view or ()) for s in stacks.values()),
        timeout=30_000,
    )
    assert joiner.abcast.epoch == stacks["p00"].abcast.epoch
    apis["p01"].abcast("post-join")
    assert run_until(
        world,
        lambda: all("post-join" in a.delivered_payloads() for a in apis.values()),
        timeout=30_000,
    )


def _burst_latency(window: int, seed: int = 23):
    """Staggered 3-sender burst; returns (p50 a-delivery latency, drain time)."""
    world, stacks = pipelined_group(
        count=3, seed=seed, window=window, max_batch=4, link=LinkModel(3.0, 8.0)
    )
    total = 0
    for i in range(10):
        for pid in list(stacks):
            world.scheduler.at(float(5 * i), lambda p=pid, i=i: bcast(stacks, p, f"{p}:{i}"))
            total += 1
    assert run_until(
        world,
        lambda: all(len(log) == total for log in logs(stacks).values()),
        timeout=120_000,
    )
    stats = world.metrics.latency.stats("abcast")
    return stats.p50, world.now


def test_pipelining_improves_bursty_adelivery_latency():
    # The ISSUE's shape claim: same bursty workload, same batch cap, the
    # only variable is the window.  W=4 must beat W=1 on a-delivery p50
    # (with W=1, messages arriving mid-instance queue behind its full
    # four-phase consensus round; with W=4 they start immediately).
    p50_serial, drain_serial = _burst_latency(window=1)
    p50_pipelined, drain_pipelined = _burst_latency(window=4)
    assert p50_pipelined < p50_serial
    assert drain_pipelined <= drain_serial


def _apply(state, command):
    op, amount = command
    assert op == "add"
    return state + amount, state + amount


def _pipelined_recovery_scenario(seed: int):
    """The crash-recovery acceptance scenario, but with W=4 pipelining."""
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
    return world, stacks, replicas, converged


def test_pipelined_recovery_scenario_is_deterministic():
    def fingerprint():
        world, stacks, replicas, converged = _pipelined_recovery_scenario(seed=7)
        assert converged
        return (
            {pid: r.state for pid, r in replicas.items()},
            {pid: [str(v) for v in stacks[pid].membership.view_history] for pid in stacks},
            [str(m.id) for m in app_history(stacks["p00"])],
            world.metrics.counters.get("net.stale_incarnation_dropped"),
            world.now,
        )

    assert fingerprint() == fingerprint()
