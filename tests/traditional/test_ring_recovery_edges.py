"""Edge cases for ring reformation (initiator crash, stale commits)."""

import pytest

from repro.net.topology import LinkModel
from repro.sim.world import World, build_group
from repro.traditional.rmp import RMPStack
from repro.traditional.totem import TotemStack

from tests.conftest import run_until


@pytest.mark.parametrize("stack_class", [RMPStack, TotemStack])
def test_reformation_initiator_crash_is_retried_by_next_rank(stack_class):
    world = World(seed=51, default_link=LinkModel(1.0, 1.0))
    stacks = build_group(world, 4, stack_class, exclusion_timeout=200.0)
    world.start()
    world.run_for(100.0)
    world.crash("p03")
    # p00 is the reformation initiator; kill it just as it starts.
    world.crash("p00", at=world.now + 210.0)
    survivors = ("p01", "p02")
    assert run_until(
        world,
        lambda: all(
            stacks[p].view() is not None
            and set(stacks[p].view().members) == {"p01", "p02"}
            for p in survivors
        ),
        timeout=120_000,
    )
    stacks["p01"].abcast_payload("after-double-crash")
    assert run_until(
        world,
        lambda: all(
            "after-double-crash" in stacks[p].delivered_payloads() for p in survivors
        ),
        timeout=60_000,
    )
    assert stacks["p01"].delivered_payloads() == stacks["p02"].delivered_payloads()


def test_stale_commit_for_old_view_is_ignored():
    world = World(seed=52, default_link=LinkModel(1.0, 1.0))
    stacks = build_group(world, 3, RMPStack, exclusion_timeout=200.0)
    world.start()
    world.run_for(100.0)
    world.crash("p02")
    assert run_until(
        world, lambda: stacks["p00"].view().id == 1, timeout=60_000
    )
    from repro.membership.view import View

    # Replay a commit for the already-installed view id: must be ignored.
    stale_view = View(1, ("p00",))
    stacks["p01"].channel.send("p00", "reform.commit", (stale_view, {}, 0, 7))
    world.run_for(200.0)
    assert stacks["p00"].view().members == ("p00", "p01")
    assert stacks["p00"].abcast.generation != 7


def test_ring_tolerates_loss_during_reformation():
    world = World(seed=53, default_link=LinkModel(1.0, 2.0, drop_prob=0.2))
    stacks = build_group(world, 3, RMPStack, exclusion_timeout=250.0)
    world.start()
    world.run_for(100.0)
    world.crash("p01")
    stacks["p00"].abcast_payload("lossy-reform")
    survivors = ("p00", "p02")
    assert run_until(
        world,
        lambda: all(
            "lossy-reform" in stacks[p].delivered_payloads() for p in survivors
        ),
        timeout=120_000,
    )
