"""Unit tests for the monitoring component's exclusion policies."""

import pytest

from repro.core.new_stack import StackConfig
from repro.monitoring.component import MonitoringPolicy
from repro.net.reliable import RTO_MAX

from tests.conftest import new_group, run_until


def test_policy_validation():
    with pytest.raises(ValueError):
        MonitoringPolicy(votes_required=0)


def test_crash_leads_to_exclusion_after_large_timeout():
    config = StackConfig(
        suspicion_timeout=40.0,
        monitoring=MonitoringPolicy(exclusion_timeout=500.0),
    )
    world, stacks, _ = new_group(config=config, seed=1)
    world.run_for(100.0)
    world.crash("p02")
    crash_time = world.now
    assert run_until(
        world,
        lambda: stacks["p00"].membership.view.members == ("p00", "p01"),
        timeout=20_000,
    )
    # Exclusion must have waited for (roughly) the large timeout.
    assert world.now - crash_time >= 500.0


def test_suspicion_does_not_exclude_before_large_timeout():
    # Section 4.3: the small timeout suspects quickly but exclusion only
    # happens after the monitoring (large) timeout.
    config = StackConfig(
        suspicion_timeout=30.0,
        monitoring=MonitoringPolicy(exclusion_timeout=10_000.0),
    )
    world, stacks, _ = new_group(config=config, seed=2)
    world.run_for(100.0)
    world.crash("p02")
    world.run_for(2_000.0)
    # The small-timeout monitor already suspects...
    assert "p02" in stacks["p00"].suspicion_monitor.suspects
    # ...but no exclusion yet.
    assert stacks["p00"].membership.view.id == 0
    assert "p02" in stacks["p00"].membership.view


def test_threshold_policy_requires_multiple_voters():
    config = StackConfig(
        monitoring=MonitoringPolicy(exclusion_timeout=300.0, votes_required=2),
    )
    world, stacks, _ = new_group(count=4, seed=3, config=config)
    world.run_for(100.0)
    world.crash("p03")
    assert run_until(
        world,
        lambda: "p03" not in stacks["p00"].membership.view,
        timeout=30_000,
    )
    # The vote ledger for the excluded peer is consumed by the exclusion.
    votes = stacks["p00"].monitoring._votes.get("p03")
    assert not votes
    exclusions = world.metrics.counters.get("monitoring.exclusions_requested")
    assert exclusions >= 1


def test_asymmetric_fault_does_not_exclude_with_threshold():
    # Only p00 loses the heartbeats FROM p02 (asymmetric link fault):
    # with votes_required=3 its lone suspicion cannot exclude p02, and
    # once the link heals the suspicion is withdrawn.
    from repro.net.topology import LinkModel

    config = StackConfig(
        monitoring=MonitoringPolicy(exclusion_timeout=200.0, votes_required=3),
    )
    world, stacks, _ = new_group(count=4, seed=4, config=config)
    world.run_for(100.0)
    world.transport.set_link("p02", "p00", LinkModel(1.0, 1.0, drop_prob=1.0))
    world.run_for(1_000.0)
    assert world.metrics.counters.get("monitoring.fd_suspicions") >= 1
    world.transport.set_link("p02", "p00", LinkModel(1.0, 1.0))
    world.run_for(3_000.0)
    # One voter out of the three required: all four members remain.
    assert len(stacks["p01"].membership.view) == 4
    assert len(stacks["p00"].membership.view) == 4


def test_isolated_minority_is_excluded_by_the_primary_partition():
    # Primary-partition semantics: when p00 is cut off from the majority
    # for longer than the exclusion timeout, the majority side removes it.
    config = StackConfig(
        monitoring=MonitoringPolicy(exclusion_timeout=200.0, votes_required=2),
    )
    world, stacks, _ = new_group(count=4, seed=4, config=config)
    world.run_for(100.0)
    world.split([["p00"], ["p01", "p02", "p03"]])
    assert run_until(
        world,
        lambda: stacks["p01"].membership.view.members == ("p01", "p02", "p03"),
        timeout=20_000,
    )


def test_output_triggered_exclusion():
    # p02 is alive and heard by everybody, but what p00 and p01 send it
    # is lost (one-way cuts): their detectors never suspect it, their
    # channels' output to it gets stuck, and the two output suspicions
    # exclude it.  p02's own suspicions of them are one vote each, short
    # of the two required.
    config = StackConfig(
        monitoring=MonitoringPolicy(exclusion_timeout=300.0, votes_required=2),
    )
    world, stacks, _ = new_group(count=4, seed=5, config=config)
    world.run_for(50.0)
    sent_at = world.now
    for pid in ("p00", "p01"):
        world.cut(pid, "p02")
        stacks[pid].channel.send("p02", "gb.ack", [(0, None)])
    assert run_until(
        world,
        lambda: "p02" not in stacks["p00"].membership.view,
        timeout=60_000,
    )
    assert stacks["p00"].membership.view.members == ("p00", "p01", "p03")
    assert world.metrics.counters.get("monitoring.output_suspicions") >= 2
    assert all("p02" not in stacks[pid].monitoring.monitor.suspects for pid in ("p00", "p01"))
    # The exclusion timeout is the output threshold too: the first
    # suspicion comes at the first retransmission expiry past it.
    first = world.trace.select(component="monitoring", event="output_suspicion")[0]
    assert first.details["suspect"] == "p02"
    assert 300.0 <= first.time - sent_at <= 300.0 + RTO_MAX


def test_exclusion_discards_channel_buffer():
    config = StackConfig(monitoring=MonitoringPolicy(exclusion_timeout=300.0))
    world, stacks, _ = new_group(seed=6, config=config)
    world.run_for(50.0)
    world.crash("p02")
    stacks["p00"].channel.send("p02", "gb.ack", [(0, None)])
    world.run_for(100.0)
    assert stacks["p00"].channel.unacked("p02") >= 1
    assert run_until(
        world, lambda: "p02" not in stacks["p00"].membership.view, timeout=30_000
    )
    world.run_for(100.0)
    assert stacks["p00"].channel.unacked("p02") == 0
