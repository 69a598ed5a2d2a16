"""Tests for the quorum-based generic broadcast variant ([1]-style)."""

import pytest

from repro.core.new_stack import StackConfig, build_new_group
from repro.gbcast.conflict import PASSIVE_REPLICATION, PRIMARY_CHANGE, UPDATE, ConflictRelation
from repro.gbcast.quorum import QuorumGenericBroadcast
from repro.monitoring.component import MonitoringPolicy
from repro.sim.world import World

from tests.conftest import run_until


def quorum_group(count=4, seed=1, conflict=PASSIVE_REPLICATION):
    config = StackConfig(
        quorum_fast_path=True,
        monitoring=MonitoringPolicy(exclusion_timeout=100_000.0),
    )
    world = World(seed=seed)
    stacks = build_new_group(world, count, conflict=conflict, config=config)
    world.start()
    return world, stacks


def logs(stacks, alive=None):
    return {
        pid: [
            (m.payload, m.msg_class)
            for m, _p in s.gbcast.delivered_log
            if not m.msg_class.startswith("_")
        ]
        for pid, s in stacks.items()
        if alive is None or pid in alive
    }


def test_stack_uses_quorum_class():
    world, stacks = quorum_group()
    assert isinstance(stacks["p00"].gbcast, QuorumGenericBroadcast)
    assert stacks["p00"].gbcast.ack_quorum() == 3  # n=4, f=1


def test_quorum_arithmetic():
    world, stacks = quorum_group(count=7)
    gb = stacks["p00"].gbcast
    assert gb._f() == 2
    assert gb.ack_quorum() == 5


def test_failure_free_fast_path_without_consensus():
    world, stacks = quorum_group(seed=2)
    for i in range(8):
        stacks["p00"].gbcast.gbcast_payload(("u", i), UPDATE)
    assert run_until(
        world,
        lambda: all(len(v) == 8 for v in logs(stacks).values()),
        timeout=30_000,
    )
    assert world.metrics.counters.get("consensus.proposals") == 0
    assert world.metrics.counters.get("gbcast.delivered.fast") == 32


def test_fast_path_survives_f_crashes():
    # THE advantage over all-ack: with n=4, f=1, one crashed member does
    # not stall the fast path at all — no closure, no consensus.
    world, stacks = quorum_group(seed=3)
    world.run_for(50.0)
    world.crash("p03")
    world.run_for(500.0)  # let suspicion settle (f suspects don't block)
    before = world.metrics.counters.get("gbcast.endstages")
    for i in range(6):
        stacks["p00"].gbcast.gbcast_payload(("post", i), UPDATE)
    alive = ["p00", "p01", "p02"]
    assert run_until(
        world,
        lambda: all(len(v) == 6 for v in logs(stacks, alive).values()),
        timeout=30_000,
    )
    assert world.metrics.counters.get("gbcast.endstages") == before
    assert world.metrics.counters.get("consensus.proposals") == 0


def test_conflicting_messages_totally_ordered_via_gather():
    world, stacks = quorum_group(seed=4)
    for i in range(4):
        stacks["p00"].gbcast.gbcast_payload(("u", i), UPDATE)
        stacks["p01"].gbcast.gbcast_payload(("c", i), PRIMARY_CHANGE)
    assert run_until(
        world,
        lambda: all(len(v) == 8 for v in logs(stacks).values()),
        timeout=60_000,
    )
    assert world.metrics.counters.get("gbcast.gathers") > 0
    # Conflicting pairs agree everywhere.
    orders = list(logs(stacks).values())
    reference = [p for p, _c in orders[0]]
    pos = {p: i for i, p in enumerate(reference)}
    classes = dict(orders[0])
    rel = PASSIVE_REPLICATION
    for order in orders[1:]:
        seq = [p for p, _c in order]
        for i, a in enumerate(seq):
            for b in seq[i + 1 :]:
                if rel.conflicts(classes[a], classes[b]):
                    assert pos[a] < pos[b]


def test_conflicts_ordered_even_with_a_crashed_member():
    world, stacks = quorum_group(seed=5)
    world.run_for(50.0)
    world.crash("p02")
    for i in range(3):
        stacks["p00"].gbcast.gbcast_payload(("u", i), UPDATE)
        stacks["p01"].gbcast.gbcast_payload(("c", i), PRIMARY_CHANGE)
    alive = ["p00", "p01", "p03"]
    assert run_until(
        world,
        lambda: all(len(v) == 6 for v in logs(stacks, alive).values()),
        timeout=60_000,
    )
    orders = list(logs(stacks, alive).values())
    changes = lambda order: [p for p, c in order if c == PRIMARY_CHANGE]
    assert changes(orders[0]) == changes(orders[1]) == changes(orders[2])


@pytest.mark.parametrize("seed", range(6, 12))
def test_randomised_mixed_traffic_agreement(seed):
    relation = ConflictRelation.build(
        ["a", "b"], [("b", "b"), ("a", "b")]
    )
    world, stacks = quorum_group(count=4, seed=seed, conflict=relation)
    from repro.sim.randomness import fork_rng

    rng = fork_rng(seed, "quorum-mix")
    pids = sorted(stacks)
    for i in range(12):
        sender = rng.choice(pids)
        cls = "b" if rng.random() < 0.3 else "a"
        world.scheduler.at(
            world.now + rng.uniform(0, 100),
            lambda s=sender, c=cls, i=i: stacks[s].gbcast.gbcast_payload(("m", i), c),
        )
    assert run_until(
        world,
        lambda: all(len(v) == 12 for v in logs(stacks).values()),
        timeout=120_000,
    )
    sets = [set(p for p, _c in v) for v in logs(stacks).values()]
    assert all(s == sets[0] for s in sets)
    # Conflict order across all processes.
    orders = list(logs(stacks).values())
    pos = {p: i for i, (p, _c) in enumerate(orders[0])}
    classes = dict(orders[0])
    for order in orders[1:]:
        seq = [p for p, _c in order]
        for i, a in enumerate(seq):
            for b in seq[i + 1 :]:
                if relation.conflicts(classes[a], classes[b]):
                    assert pos[a] < pos[b], (a, b, orders)
