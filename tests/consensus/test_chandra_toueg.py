"""Unit tests for Chandra-Toueg consensus."""

from repro.broadcast.rbcast import ReliableBroadcast
from repro.consensus.chandra_toueg import ChandraTouegConsensus
from repro.fd.heartbeat import HeartbeatFailureDetector
from repro.net.reliable import ReliableChannel
from repro.net.topology import LinkModel
from repro.sim.world import World

from tests.conftest import run_until


def consensus_world(count=3, seed=1, suspicion_timeout=60.0, link=None):
    world = World(seed=seed, default_link=link or LinkModel(1.0, 1.0))
    pids = world.spawn(count)
    nodes = {}
    decisions = {pid: {} for pid in pids}
    for pid in pids:
        proc = world.process(pid)
        channel = ReliableChannel(proc)
        fd = HeartbeatFailureDetector(proc, lambda: list(pids))
        rb = ReliableBroadcast(proc, channel, lambda: list(pids))
        monitor = fd.monitor(list(pids), suspicion_timeout)
        cons = ChandraTouegConsensus(proc, channel, rb, monitor)
        cons.on_decide(lambda key, value, pid=pid: decisions[pid].__setitem__(key, value))
        nodes[pid] = cons
    return world, pids, nodes, decisions


def everyone_decided(decisions, key, pids):
    return all(key in decisions[pid] for pid in pids)


def test_failure_free_agreement_and_validity():
    world, pids, nodes, decisions = consensus_world()
    world.start()
    for pid in pids:
        nodes[pid].propose("k0", f"value-from-{pid}", pids)
    assert run_until(world, lambda: everyone_decided(decisions, "k0", pids))
    values = {decisions[pid]["k0"] for pid in pids}
    assert len(values) == 1                      # agreement
    assert values.pop() in {f"value-from-{p}" for p in pids}  # validity


def test_decision_with_crashed_minority():
    world, pids, nodes, decisions = consensus_world(count=5)
    world.start()
    world.run_for(50.0)
    world.crash("p03")
    world.crash("p04")
    for pid in ("p00", "p01", "p02"):
        nodes[pid].propose("k", pid, pids)
    alive = ["p00", "p01", "p02"]
    assert run_until(world, lambda: everyone_decided(decisions, "k", alive), timeout=20_000)
    assert len({decisions[p]["k"] for p in alive}) == 1


def test_coordinator_crash_rotates_to_next():
    world, pids, nodes, decisions = consensus_world()
    world.start()
    world.run_for(50.0)
    world.crash("p00")  # round-0 coordinator for any instance
    for pid in ("p01", "p02"):
        nodes[pid].propose("k", pid, pids)
    alive = ["p01", "p02"]
    assert run_until(world, lambda: everyone_decided(decisions, "k", alive), timeout=20_000)
    assert len({decisions[p]["k"] for p in alive}) == 1


def test_multiple_instances_are_independent():
    world, pids, nodes, decisions = consensus_world()
    world.start()
    for i in range(5):
        for pid in pids:
            nodes[pid].propose(("multi", i), f"{pid}-{i}", pids)
    assert run_until(
        world,
        lambda: all(everyone_decided(decisions, ("multi", i), pids) for i in range(5)),
        timeout=20_000,
    )
    for i in range(5):
        assert len({decisions[p][("multi", i)] for p in pids}) == 1


def test_late_proposer_still_decides():
    world, pids, nodes, decisions = consensus_world()
    world.start()
    nodes["p01"].propose("late", "early-bird", pids)
    nodes["p02"].propose("late", "early-bird-2", pids)
    world.run_for(300.0)
    nodes["p00"].propose("late", "slowpoke", pids)
    assert run_until(world, lambda: everyone_decided(decisions, "late", pids), timeout=20_000)
    assert len({decisions[p]["late"] for p in pids}) == 1


def test_wrong_suspicion_does_not_violate_agreement():
    # Tiny suspicion timeout => constant false suspicions; decisions must
    # still agree (the whole point of a diamond-S-based protocol).
    world, pids, nodes, decisions = consensus_world(
        seed=9, suspicion_timeout=3.0, link=LinkModel(1.0, 4.0)
    )
    world.start()
    for i in range(3):
        for pid in pids:
            nodes[pid].propose(("fs", i), f"{pid}/{i}", pids)
    assert run_until(
        world,
        lambda: all(everyone_decided(decisions, ("fs", i), pids) for i in range(3)),
        timeout=60_000,
    )
    for i in range(3):
        assert len({decisions[p][("fs", i)] for p in pids}) == 1


def test_decision_is_remembered():
    world, pids, nodes, decisions = consensus_world()
    world.start()
    for pid in pids:
        nodes[pid].propose("k", pid, pids)
    assert run_until(world, lambda: everyone_decided(decisions, "k", pids))
    value = decisions["p00"]["k"]
    assert nodes["p00"].decision("k") == value
    # Re-proposing after the decision is a no-op.
    nodes["p00"].propose("k", "other", pids)
    world.run_for(500.0)
    assert nodes["p00"].decision("k") == value


def test_lossy_network_does_not_block_consensus():
    world, pids, nodes, decisions = consensus_world(
        seed=4, link=LinkModel(1.0, 3.0, drop_prob=0.15)
    )
    world.start()
    for pid in pids:
        nodes[pid].propose("lossy", pid, pids)
    assert run_until(world, lambda: everyone_decided(decisions, "lossy", pids), timeout=30_000)


def test_transient_suspicion_of_a_live_coordinator_cannot_deadlock():
    """p00/p02 rush through round 1 (transiently suspecting p01, its
    coordinator) into round 2, while p01 is still resolving round 0.

    Pre-fix this interleaving — found by the schedule explorer (seed 1:
    a partition plus a crash made two processes briefly suspect a third)
    — deadlocked three *live* processes: p01 eventually proposed in
    round 1 and waited forever for ACKs its peers, already in round 2,
    silently ignored; round 2's coordinator p02 waited for a third
    estimate only p01 could send; and nobody advances past a round whose
    coordinator is alive.  Stale proposals must be NACKed, and an ABORT
    for a round not yet reached must be remembered, so every leg of that
    wait breaks.
    """
    world, pids, nodes, decisions = consensus_world(count=4)
    world.start()
    key = "k"
    participants = list(pids)
    for pid in ("p00", "p01", "p02"):
        nodes[pid].propose(key, pid, participants)
    # Force the explorer's interleaving before any message is processed:
    # p00/p02 pass through round 1 (estimate reaches p01, chased by a
    # NACK) and land in round 2.  p01 stays behind in round 0.
    for pid in ("p00", "p02"):
        inst = nodes[pid]._instances[key]
        nodes[pid]._enter_round(key, inst, 1)
        nodes[pid]._nack_and_advance(key, inst, 1)
        assert inst.round == 2
    alive = ["p00", "p01", "p02"]
    assert run_until(world, lambda: everyone_decided(decisions, key, alive), timeout=20_000)
    assert len({decisions[p][key] for p in alive}) == 1
