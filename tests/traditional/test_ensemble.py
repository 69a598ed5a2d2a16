"""Tests for the Ensemble modular stack (Fig. 5) and the stack kernel."""

from repro.net.topology import LinkModel
from repro.sim.world import World, build_group
from repro.traditional.ensemble import EnsembleStack

from tests.conftest import run_until


def ensemble_group(count=3, seed=1, **options):
    world = World(seed=seed, default_link=LinkModel(1.0, 1.0))
    stacks = build_group(world, count, EnsembleStack, **options)
    world.start()
    return world, stacks


def logs(stacks):
    return {pid: s.delivered_payloads() for pid, s in stacks.items()}


def test_stack_composition_matches_fig5():
    world, stacks = ensemble_group()
    assert stacks["p00"].kernel.layer_names() == EnsembleStack.LAYERS
    # The application is NOT the uppermost layer (Section 2.2).
    names = stacks["p00"].kernel.layer_names()
    assert names.index("app_interface") < names.index("membership")


def test_failure_free_total_order():
    world, stacks = ensemble_group()
    for i in range(6):
        stacks["p00"].abcast_payload(f"a{i}")
        stacks["p01"].abcast_payload(f"b{i}")
    assert run_until(
        world, lambda: all(len(v) == 12 for v in logs(stacks).values()), timeout=20_000
    )
    orders = list(logs(stacks).values())
    assert all(order == orders[0] for order in orders)


def test_stability_events_bounce_through_the_stack():
    world, stacks = ensemble_group(seed=2)
    stacks["p00"].abcast_payload("stable-me")
    assert run_until(
        world, lambda: world.metrics.counters.get("ens.stabilized") >= 1, timeout=20_000
    )
    assert world.metrics.counters.get("ens.bounces") >= 1


def test_event_hops_counted():
    world, stacks = ensemble_group(seed=3)
    stacks["p00"].abcast_payload("x")
    assert run_until(world, lambda: all(len(v) == 1 for v in logs(stacks).values()))
    assert world.metrics.counters.get("ens.event_hops") > 0


def test_sequencer_crash_triggers_sync_block_and_new_view():
    world, stacks = ensemble_group(seed=4, exclusion_timeout=200.0)
    world.run_for(100.0)
    world.crash("p00")
    survivors = ("p01", "p02")
    assert run_until(
        world,
        lambda: all(stacks[p].view().members == ("p01", "p02") for p in survivors),
        timeout=30_000,
    )
    # Sync blocked the app interface during the change.
    assert world.metrics.counters.get("vs.blocks") >= 1
    assert sum(world.metrics.latency.samples("vs.blocked")) > 0
    # Ordering resumes under the new sequencer.
    stacks["p01"].abcast_payload("after-change")
    assert run_until(
        world,
        lambda: all("after-change" in logs(stacks)[p] for p in survivors),
        timeout=20_000,
    )


def test_sends_during_block_are_queued_not_lost():
    world, stacks = ensemble_group(seed=5, exclusion_timeout=150.0)
    world.run_for(50.0)
    world.crash("p02")
    # Wait until p00 blocks, then send.
    assert run_until(world, lambda: stacks["p00"].app.blocked, timeout=20_000)
    stacks["p00"].abcast_payload("queued-while-blocked")
    assert world.metrics.counters.get("vs.sends_blocked") >= 1
    survivors = ("p00", "p01")
    assert run_until(
        world,
        lambda: all("queued-while-blocked" in logs(stacks)[p] for p in survivors),
        timeout=30_000,
    )
