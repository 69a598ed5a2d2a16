"""Tests for the Phoenix stack (Fig. 2): consensus-based membership + VS."""

from repro.net.topology import LinkModel
from repro.sim.world import World, build_group
from repro.traditional.phoenix import PhoenixStack

from tests.conftest import run_until


def phoenix_group(count=3, seed=1, **options):
    world = World(seed=seed, default_link=LinkModel(1.0, 1.0))
    stacks = build_group(world, count, PhoenixStack, **options)
    world.start()
    return world, stacks


def logs(stacks):
    return {pid: s.delivered_payloads() for pid, s in stacks.items()}


def test_failure_free_total_order():
    world, stacks = phoenix_group()
    for i in range(6):
        stacks["p00"].abcast_payload(f"a{i}")
        stacks["p02"].abcast_payload(f"c{i}")
    assert run_until(
        world, lambda: all(len(v) == 12 for v in logs(stacks).values()), timeout=20_000
    )
    orders = list(logs(stacks).values())
    assert all(order == orders[0] for order in orders)


def test_crash_leads_to_consensus_decided_view_change():
    world, stacks = phoenix_group(seed=2, exclusion_timeout=200.0)
    world.run_for(100.0)
    world.crash("p02")
    survivors = ("p00", "p01")
    assert run_until(
        world,
        lambda: all(stacks[p].view().members == ("p00", "p01") for p in survivors),
        timeout=30_000,
    )
    # The view change went through consensus.
    assert world.metrics.counters.get("pvs.view_proposals") >= 1
    stacks["p00"].abcast_payload("after")
    assert run_until(
        world, lambda: all(logs(stacks)[p] == ["after"] for p in survivors), timeout=20_000
    )


def test_sequencer_crash_recovery():
    world, stacks = phoenix_group(seed=3, exclusion_timeout=200.0)
    world.run_for(50.0)
    world.crash("p00")  # the sequencer
    stacks["p01"].abcast_payload("stalled")
    survivors = ("p01", "p02")
    assert run_until(
        world,
        lambda: all(logs(stacks)[p] == ["stalled"] for p in survivors),
        timeout=30_000,
    )


def test_concurrent_view_change_initiators_converge():
    # Several survivors initiate a change simultaneously; consensus
    # ensures a single consistent view sequence.  (Crash only a minority:
    # consensus-based membership requires f < n/2.)
    world, stacks = phoenix_group(count=5, seed=4, exclusion_timeout=150.0)
    world.run_for(100.0)
    world.crash("p03")
    world.crash("p04")
    survivors = ("p00", "p01")
    assert run_until(
        world,
        lambda: all(
            set(stacks[p].view().members) == {"p00", "p01", "p02"} for p in survivors
        ),
        timeout=40_000,
    )
    assert (
        stacks["p00"].membership.view_history == stacks["p01"].membership.view_history
    )


def test_partition_scenario_two_services_progress():
    # Section 2.1.2: service S has its majority in component Pi1, service
    # S' in Pi2; both make progress during the partition because Phoenix
    # membership is at process level.
    world = World(seed=5, default_link=LinkModel(1.0, 1.0))
    s_group = build_group(world, 3, PhoenixStack, exclusion_timeout=200.0)
    s_prime = build_group(world, 3, PhoenixStack, exclusion_timeout=200.0)  # p03 p04 p05
    world.start()
    world.run_for(100.0)
    # Pi1 holds S-majority {p00,p01} and S'-minority {p03};
    # Pi2 holds S-minority {p02} and S'-majority {p04,p05}.
    world.split([["p00", "p01", "p03"], ["p02", "p04", "p05"]])
    s_group["p00"].abcast_payload("s-update")
    s_prime["p04"].abcast_payload("sprime-update")
    assert run_until(
        world,
        lambda: "s-update" in s_group["p01"].delivered_payloads()
        and "sprime-update" in s_prime["p05"].delivered_payloads(),
        timeout=40_000,
    )
    # Each service shrank to its majority side.
    assert set(s_group["p00"].view().members) == {"p00", "p01"}
    assert set(s_prime["p04"].view().members) == {"p04", "p05"}


def test_view_synchrony_blocking_measured():
    world, stacks = phoenix_group(seed=6, exclusion_timeout=150.0)
    world.run_for(50.0)
    world.crash("p01")
    assert run_until(world, lambda: stacks["p00"].view().id == 1, timeout=30_000)
    assert sum(world.metrics.latency.samples("vs.blocked")) > 0


def test_ordering_solver_inventory():
    assert len(PhoenixStack.ORDERING_SOLVERS) == 2
