"""Unit tests for consensus instance garbage collection."""

from tests.conftest import new_group, run_until
from tests.consensus.test_chandra_toueg import consensus_world, everyone_decided


def test_collect_drops_state_but_keeps_tombstone():
    world, pids, nodes, decisions = consensus_world()
    world.start()
    for pid in pids:
        nodes[pid].propose("k", pid, pids)
    assert run_until(world, lambda: everyone_decided(decisions, "k", pids))
    node = nodes["p00"]
    assert node.decision("k") is not None
    node.collect("k")
    assert node.decision("k") is None
    assert "k" not in node._instances
    # Late messages for the collected instance are ignored, not re-run.
    node._on_message("p01", ("ESTIMATE", "k", 0, "zombie", 0))
    world.run_for(200.0)
    assert node.decision("k") is None
    assert world.metrics.counters.get("consensus.collected") == 1


def test_collect_before_decision_is_noop():
    world, pids, nodes, decisions = consensus_world()
    world.start()
    nodes["p00"].collect("never-started")
    assert world.metrics.counters.get("consensus.collected") == 0


def test_abcast_autocollects_applied_instances():
    world, stacks, _ = new_group(seed=2)
    for i in range(10):
        stacks["p00"].gbcast.gbcast_payload(("x", i), "abcast")
        stacks["p01"].gbcast.gbcast_payload(("y", i), "abcast")
    assert run_until(
        world,
        lambda: all(
            len([m for m, _p in s.gbcast.delivered_log if m.msg_class == "abcast"]) == 20
            for s in stacks.values()
        ),
        timeout=60_000,
    )
    world.run_for(2_000.0)
    # Every applied abcast instance was collected at every process:
    # the live instance tables stay small.
    for stack in stacks.values():
        live = list(stack.consensus._instances)
        assert len(live) <= 2, live
    assert world.metrics.counters.get("consensus.collected") > 0


def test_reproposal_after_collect_is_ignored():
    world, pids, nodes, decisions = consensus_world(seed=3)
    world.start()
    for pid in pids:
        nodes[pid].propose("k", pid, pids)
    assert run_until(world, lambda: everyone_decided(decisions, "k", pids))
    nodes["p00"].collect("k")
    nodes["p00"].propose("k", "resurrect", pids)
    world.run_for(500.0)
    assert nodes["p00"].decision("k") is None  # still collected
    assert "k" not in nodes["p00"]._instances
