"""Targeted failure-injection scenarios for the new architecture."""

import pytest

from repro.core.new_stack import StackConfig
from repro.monitoring.component import MonitoringPolicy
from repro.net.topology import LinkModel
from repro.sim.world import add_joiner

from tests.conftest import new_group, run_until


def test_loss_burst_during_view_change():
    # Heavy loss exactly while a remove is being ordered: the view change
    # must still complete identically everywhere.
    world, stacks, apis = new_group(seed=41)
    world.run_for(50.0)
    world.transport.default_link = LinkModel(1.0, 4.0, drop_prob=0.3)
    apis["p00"].remove("p02")
    assert run_until(
        world,
        lambda: all(stacks[p].membership.view.id == 1 for p in ("p00", "p01")),
        timeout=120_000,
    )
    world.transport.default_link = LinkModel(1.0, 1.0)
    h0 = [str(v) for v in stacks["p00"].membership.view_history]
    h1 = [str(v) for v in stacks["p01"].membership.view_history]
    assert h0 == h1 == ["v0[p00;p01;p02]", "v1[p00;p01]"]


def test_joiner_crashes_mid_join():
    # The group must not be damaged by a joiner that dies right after
    # requesting to join (its view change may or may not complete).
    world, stacks, apis = new_group(seed=42)
    world.run_for(50.0)
    joiner = add_joiner(world, stacks)
    joiner.membership.request_join("p00")
    world.run_for(15.0)
    world.crash(joiner.pid)
    world.run_for(2_000.0)
    apis["p00"].abcast("still-alive")
    assert run_until(
        world,
        lambda: all(
            "still-alive" in a.delivered_payloads()
            for pid, a in apis.items()
            if pid != joiner.pid
        ),
        timeout=60_000,
    )
    # Original members agree on whatever view sequence resulted.
    h0 = [str(v) for v in stacks["p00"].membership.view_history]
    h1 = [str(v) for v in stacks["p01"].membership.view_history]
    assert h0 == h1


@pytest.mark.parametrize("offset", range(1, 21))
def test_crash_of_state_transfer_source(offset):
    # The membership primary (state-transfer source) crashes ``offset`` ms
    # after the join request: before the join is ordered, between its
    # ordering and the snapshot leaving, or after.  Regression for the
    # middle window — the joiner was in the view without state, two of
    # four members worked, and nothing was ever ordered again.
    config = StackConfig(monitoring=MonitoringPolicy(exclusion_timeout=400.0))
    world, stacks, apis = new_group(seed=43, config=config)
    world.run_for(50.0)
    joiner = add_joiner(world, stacks, config=config)
    joiner.membership.request_join("p01")
    world.crash("p00", at=world.now + offset)
    world.run_for(3_000.0)
    survivors = ("p01", "p02")
    apis["p01"].abcast("group-lives")
    assert run_until(
        world,
        lambda: all("group-lives" in apis[p].delivered_payloads() for p in survivors),
        timeout=60_000,
    )
    # The joiner ends in the view or outside it, never half-joined: the
    # survivors agree on the view, and list the joiner iff it installed
    # that same view itself.
    views = {stacks[p].membership.view for p in survivors}
    assert len(views) == 1
    (view,) = views
    assert "p00" not in view
    if joiner.pid in view:
        assert joiner.membership.view == view
    else:
        assert joiner.membership.view is None


def test_repeated_crash_recover_cycles_of_links():
    # Flapping connectivity to one member: no exclusion (threshold 2 needs
    # a second voter), no divergence once stable.
    config = StackConfig(
        suspicion_timeout=60.0,
        monitoring=MonitoringPolicy(exclusion_timeout=500.0, votes_required=3),
    )
    world, stacks, apis = new_group(count=4, seed=44, config=config)
    world.run_for(100.0)
    flaky = LinkModel(1.0, 1.0, drop_prob=1.0)
    healthy = LinkModel(1.0, 1.0)
    for cycle in range(3):
        world.transport.set_link("p03", "p00", flaky)
        world.run_for(200.0)
        world.transport.set_link("p03", "p00", healthy)
        world.run_for(200.0)
    apis["p02"].abcast("after-flapping")
    assert run_until(
        world,
        lambda: all("after-flapping" in a.delivered_payloads() for a in apis.values()),
        timeout=60_000,
    )
    assert len(stacks["p00"].membership.view) == 4  # nobody excluded


def test_simultaneous_crash_and_partition():
    # One crash + a brief partition of another member, concurrently.
    config = StackConfig(monitoring=MonitoringPolicy(exclusion_timeout=100_000.0))
    world, stacks, apis = new_group(count=5, seed=45, config=config)
    world.run_for(100.0)
    world.crash("p04")
    world.split([["p00", "p01", "p02"], ["p03"]])
    apis["p00"].abcast("chaos-1")
    world.run_for(600.0)
    world.heal()
    apis["p01"].abcast("chaos-2")
    majority = ("p00", "p01", "p02", "p03")
    assert run_until(
        world,
        lambda: all(
            {"chaos-1", "chaos-2"} <= set(apis[p].delivered_payloads()) for p in majority
        ),
        timeout=120_000,
    )
    orders = [apis[p].delivered_payloads() for p in majority]
    assert all(o == orders[0] for o in orders)
