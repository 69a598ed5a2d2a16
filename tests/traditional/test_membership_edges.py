"""Edge cases for the traditional membership layers and ring recovery."""

from repro.net.topology import LinkModel
from repro.sim.world import World, build_group
from repro.traditional.isis import IsisStack
from repro.traditional.phoenix import PhoenixStack
from repro.traditional.rmp import RMPStack

from tests.conftest import run_until


def test_isis_coordinator_crash_next_rank_takes_over():
    # The flush coordinator itself dies: the next-ranked survivor must
    # complete the change (excluding both dead members).
    world = World(seed=31, default_link=LinkModel(1.0, 1.0))
    stacks = build_group(world, 4, IsisStack, exclusion_timeout=200.0)
    world.start()
    world.run_for(100.0)
    world.crash("p03")
    world.run_for(100.0)  # p00 (coordinator) starts handling the change...
    world.crash("p00")    # ...and dies too
    survivors = ("p01", "p02")
    assert run_until(
        world,
        lambda: all(
            stacks[p].view() is not None
            and set(stacks[p].view().members) == {"p01", "p02"}
            for p in survivors
        ),
        timeout=60_000,
    )
    # Ordering resumes under the new sequencer.
    stacks["p01"].abcast_payload("recovered")
    assert run_until(
        world,
        lambda: all("recovered" in stacks[p].delivered_payloads() for p in survivors),
        timeout=60_000,
    )


def test_isis_sequential_crashes_shrink_to_singleton():
    world = World(seed=32, default_link=LinkModel(1.0, 1.0))
    stacks = build_group(world, 3, IsisStack, exclusion_timeout=150.0)
    world.start()
    world.run_for(100.0)
    world.crash("p01")
    assert run_until(
        world, lambda: stacks["p00"].view().members == ("p00", "p02"), timeout=60_000
    )
    world.crash("p02")
    assert run_until(
        world, lambda: stacks["p00"].view().members == ("p00",), timeout=60_000
    )
    # A singleton Isis group still orders its own messages.
    stacks["p00"].abcast_payload("alone")
    assert run_until(
        world, lambda: stacks["p00"].delivered_payloads() == ["alone"], timeout=60_000
    )


def test_phoenix_excluded_member_can_rejoin():
    world = World(seed=33, default_link=LinkModel(1.0, 1.0))
    stacks = build_group(world, 3, PhoenixStack, exclusion_timeout=200.0)
    world.start()
    world.run_for(100.0)
    # Cut p02 off long enough to be excluded (process-level: NOT killed).
    world.split([["p00", "p01"], ["p02"]])
    assert run_until(
        world,
        lambda: stacks["p00"].view() is not None and "p02" not in stacks["p00"].view(),
        timeout=60_000,
    )
    assert not world.processes["p02"].crashed  # Phoenix does not kill
    world.heal()
    world.run_for(300.0)
    # A member sponsors the re-join; consensus decides the new view.
    stacks["p00"].membership.join("p02")
    assert run_until(
        world,
        lambda: "p02" in stacks["p00"].view(),
        timeout=60_000,
    )


def test_rmp_sequential_crashes_reform_twice():
    world = World(seed=34, default_link=LinkModel(1.0, 1.0))
    stacks = build_group(world, 4, RMPStack, exclusion_timeout=200.0)
    world.start()
    world.run_for(100.0)
    world.crash("p03")
    assert run_until(
        world,
        lambda: stacks["p00"].view() is not None and len(stacks["p00"].view()) == 3,
        timeout=60_000,
    )
    gen_after_first = stacks["p00"].abcast.generation
    world.crash("p02")
    assert run_until(
        world, lambda: len(stacks["p00"].view()) == 2, timeout=60_000
    )
    assert stacks["p00"].abcast.generation > gen_after_first
    stacks["p01"].abcast_payload("second-reform")
    assert run_until(
        world,
        lambda: "second-reform" in stacks["p00"].delivered_payloads(),
        timeout=60_000,
    )


def test_rmp_message_during_reformation_not_lost():
    world = World(seed=35, default_link=LinkModel(1.0, 1.0))
    stacks = build_group(world, 3, RMPStack, exclusion_timeout=200.0)
    world.start()
    world.run_for(100.0)
    world.crash("p02")
    # Broadcast while the ring is still broken.
    stacks["p00"].abcast_payload("mid-reform")
    world.run_for(50.0)
    stacks["p01"].abcast_payload("mid-reform-2")
    survivors = ("p00", "p01")
    assert run_until(
        world,
        lambda: all(
            {"mid-reform", "mid-reform-2"} <= set(stacks[p].delivered_payloads())
            for p in survivors
        ),
        timeout=60_000,
    )
    assert stacks["p00"].delivered_payloads() == stacks["p01"].delivered_payloads()
