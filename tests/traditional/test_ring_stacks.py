"""Tests for the token-ring stacks: RMP (Fig. 3) and Totem (Fig. 4)."""

import pytest

from repro.net.topology import LinkModel
from repro.sim.world import World, add_joiner, build_group
from repro.traditional.ring_membership import RingMembership
from repro.traditional.rmp import RMPStack
from repro.traditional.totem import TotemStack

from tests.conftest import run_until


#: Both ring stacks, under the ids these tests have always carried.
RINGS = pytest.mark.parametrize(
    "stack_class", [RMPStack, TotemStack], ids=["build_rmp_group", "build_totem_group"]
)


def ring_group(stack_class, count=3, seed=1, **options):
    world = World(seed=seed, default_link=LinkModel(1.0, 1.0))
    stacks = build_group(world, count, stack_class, **options)
    world.start()
    return world, stacks


def logs(stacks):
    return {pid: s.delivered_payloads() for pid, s in stacks.items()}


@RINGS
def test_failure_free_total_order(stack_class):
    world, stacks = ring_group(stack_class)
    for i in range(6):
        stacks["p00"].abcast_payload(f"a{i}")
        stacks["p02"].abcast_payload(f"c{i}")
    assert run_until(
        world, lambda: all(len(v) == 12 for v in logs(stacks).values()), timeout=20_000
    )
    orders = list(logs(stacks).values())
    assert all(order == orders[0] for order in orders)
    assert world.metrics.counters.get("abcast.token_passes") > 0


@RINGS
def test_crash_breaks_ring_then_reformation_recovers(stack_class):
    world, stacks = ring_group(stack_class, seed=2, exclusion_timeout=200.0)
    world.run_for(100.0)
    world.crash("p01")
    stacks["p00"].abcast_payload("post-crash")
    survivors = ("p00", "p02")
    assert run_until(
        world,
        lambda: all("post-crash" in logs(stacks)[p] for p in survivors),
        timeout=30_000,
    )
    assert world.metrics.counters.get("reform.committed") >= 2
    assert stacks["p00"].view().members == ("p00", "p02")
    assert stacks["p00"].abcast.generation >= 1


@RINGS
def test_recovery_merges_partial_histories(stack_class):
    # One survivor misses ORDER messages (lossy link from the crashed
    # orderer); reformation must recover them before the new view.
    world, stacks = ring_group(stack_class, seed=3, exclusion_timeout=250.0)
    world.run_for(50.0)
    # p02 stops hearing from p00 (the likely token holder at t=60).
    world.transport.set_link("p00", "p02", LinkModel(1.0, 1.0, drop_prob=1.0))
    stacks["p00"].abcast_payload("maybe-missed")
    world.run_for(60.0)
    world.crash("p00")
    world.transport.set_link("p00", "p02", LinkModel(1.0, 1.0))
    survivors = ("p01", "p02")
    assert run_until(
        world,
        lambda: all("maybe-missed" in logs(stacks)[p] for p in survivors),
        timeout=30_000,
    )
    assert logs(stacks)["p01"] == logs(stacks)["p02"]


def test_rmp_fault_free_join_rides_the_ring():
    world, stacks = ring_group(RMPStack, seed=4)
    world.run_for(100.0)
    joiner = add_joiner(world, stacks)
    joiner.membership.request_join("p00")
    assert run_until(
        world,
        lambda: joiner.view() is not None and "p03" in stacks["p00"].view(),
        timeout=20_000,
    )
    # Fault-free: no reformation ran, the join was an ordered ctl message.
    assert world.metrics.counters.get("reform.initiated") == 0
    assert world.metrics.counters.get("ringgm.ctl_broadcasts") >= 1
    joiner.abcast_payload("hello-from-joiner")
    assert run_until(
        world,
        lambda: all("hello-from-joiner" in s.delivered_payloads() for s in stacks.values()),
        timeout=20_000,
    )


def test_rmp_fault_free_leave():
    world, stacks = ring_group(RMPStack, seed=5)
    world.run_for(100.0)
    stacks["p00"].membership.leave("p02")
    assert run_until(
        world,
        lambda: stacks["p00"].view().members == ("p00", "p01"),
        timeout=20_000,
    )
    assert world.metrics.counters.get("reform.initiated") == 0
    # The shrunken ring still orders messages.
    stacks["p01"].abcast_payload("two-left")
    assert run_until(
        world,
        lambda: all("two-left" in logs(stacks)[p] for p in ("p00", "p01")),
        timeout=20_000,
    )


def test_totem_join_via_reformation_replays_history():
    world, stacks = ring_group(TotemStack, seed=6)
    for i in range(5):
        stacks["p00"].abcast_payload(f"old-{i}")
    assert run_until(
        world, lambda: all(len(v) == 5 for v in logs(stacks).values()), timeout=20_000
    )
    joiner = add_joiner(world, stacks)
    joiner.membership.request_join("p01")
    assert run_until(world, lambda: joiner.view() is not None, timeout=30_000)
    assert world.metrics.counters.get("reform.initiated") >= 1
    # The joiner replays the merged ring history: same log as everyone.
    assert run_until(
        world,
        lambda: joiner.delivered_payloads() == logs(stacks)["p00"],
        timeout=20_000,
    )


def test_invalid_mode_rejected():
    world = World(seed=7)
    world.spawn(1)
    with pytest.raises(ValueError):
        RingMembership(
            world.process("p00"), None, None, None, None, mode="nope", exclusion_timeout=500.0
        )


@RINGS
def test_token_blocks_without_reformation(stack_class):
    # The defining traditional weakness (Section 2.3.2): with a huge
    # exclusion timeout the ring stays broken and nothing is delivered.
    world, stacks = ring_group(stack_class, seed=8, exclusion_timeout=60_000.0)
    world.run_for(100.0)
    # Crash whoever is about to receive the token: it left the member
    # that saw it last and dies with its addressee.  (Crashing a fixed
    # pid only blocks the ring if the token happens to be on it.)
    sender = max(stacks, key=lambda pid: stacks[pid].abcast.last_token_seen)
    victim = stacks[sender].view().successor(sender)
    world.crash(victim)
    survivors = [pid for pid in stacks if pid != victim]
    stacks[survivors[0]].abcast_payload("stuck")
    world.run_for(3_000.0)
    for pid in survivors:
        assert "stuck" not in logs(stacks)[pid]
