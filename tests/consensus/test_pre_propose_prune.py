"""Bounded pre-propose buffering: voided instances reclaim their buffers.

Messages that arrive for a consensus instance before the local
``propose()`` are buffered.  When an epoch bump (or a snapshot install)
voids instances this process never proposed, those buffers used to leak
forever; ``prune_pre_propose`` reclaims them and tombstones the keys so
stragglers stay inert.  The ``pre_propose_buffered()`` gauge makes the
bound observable (it is published in the bench ``decision_path`` block).
"""

from repro.core.new_stack import StackConfig

from tests.conftest import new_group, run_until
from tests.consensus.test_chandra_toueg import consensus_world


def test_prune_reclaims_and_tombstones_matching_keys():
    world, pids, nodes, _ = consensus_world()
    world.start()
    node = nodes["p00"]
    for i in range(40):
        node._on_message("p01", ("ESTIMATE", (0, i), 0, f"v{i}", 0))
    node._on_message("p01", ("ESTIMATE", (1, 0), 0, "keep", 0))
    assert node.pre_propose_buffered() == 41

    reclaimed = node.prune_pre_propose(lambda key: key[0] == 0)
    assert reclaimed == 40
    assert node.pre_propose_buffered() == 1  # the epoch-1 entry survives
    assert world.metrics.counters.get("consensus.pre_propose_pruned") == 40

    # Stragglers for a pruned key hit the tombstone, not the buffer.
    node._on_message("p01", ("ESTIMATE", (0, 7), 0, "zombie", 0))
    assert node.pre_propose_buffered() == 1


def test_prune_without_matches_is_free():
    world, pids, nodes, _ = consensus_world()
    world.start()
    node = nodes["p00"]
    assert node.prune_pre_propose(lambda key: True) == 0
    assert world.metrics.counters.get("consensus.pre_propose_pruned") == 0
    assert world.metrics.counters.get("consensus.abandoned") == 0


def test_epoch_bump_bounds_pre_propose_memory():
    # Bounded-memory regression.  A pipelined peer can start an instance
    # this process never proposes (no local pending for that index);
    # its ESTIMATEs sit in the pre-propose buffer.  If the epoch then
    # bumps, the instance is void — before pruning, those buffered
    # messages were retained forever.  The window is a narrow race, so
    # plant the hazard deterministically and let a real membership
    # change (remove → ctl op → epoch bump) reclaim it.
    world, stacks, _ = new_group(count=4, seed=7, config=StackConfig(abcast_window=4))
    for i in range(8):
        stacks["p00"].gbcast.gbcast_payload(("a", i), "abcast")
        stacks["p01"].gbcast.gbcast_payload(("b", i), "abcast")
    world.run_for(30.0)
    consensus = stacks["p00"].consensus
    consensus._on_message(
        "p01", ("ESTIMATE", (0, 99), 0, ("p01", ()), 0)
    )
    assert consensus.pre_propose_buffered() >= 1
    stacks["p00"].membership.remove("p03")
    assert run_until(
        world,
        lambda: all(
            stacks[p].membership.view.id == 1 for p in ("p00", "p01", "p02")
        ),
        timeout=20_000,
    )
    assert stacks["p00"].abcast.epoch == 1
    assert world.metrics.counters.get("consensus.pre_propose_pruned") >= 1
    world.run_for(2_000.0)
    # No process retains buffered messages for any voided (old-epoch)
    # instance, and the planted straggler's key is tombstoned.
    for pid in ("p00", "p01", "p02"):
        stack = stacks[pid]
        old = [
            key
            for key in stack.consensus._pre_propose_buffer
            if key[0] < stack.abcast.epoch
        ]
        assert old == [], (pid, old)
    consensus._on_message(
        "p01", ("ESTIMATE", (0, 99), 0, ("p01", ()), 0)
    )
    assert all(
        key != (0, 99) for key in consensus._pre_propose_buffer
    )
