"""Unit tests for consensus-based atomic broadcast (new architecture)."""

from repro.net.topology import LinkModel
from repro.sim.world import World
from repro.core.new_stack import build_new_group

from tests.conftest import run_until


def abcast_group(count=3, seed=1, link=None):
    """New-architecture stacks, using the raw abcast component directly."""
    world = World(seed=seed, default_link=link or LinkModel(1.0, 1.0))
    stacks = build_new_group(world, count)
    world.start()
    return world, stacks


def logs(stacks):
    return {
        pid: [m.payload for m in s.abcast.delivered_log if not m.msg_class.startswith("_")]
        for pid, s in stacks.items()
    }


def bcast(stacks, pid, payload):
    proc = stacks[pid].process
    stacks[pid].abcast.abcast(proc.msg_ids.message(payload))


def test_single_broadcast_delivered_everywhere():
    world, stacks = abcast_group()
    bcast(stacks, "p00", "m1")
    assert run_until(world, lambda: all(log == ["m1"] for log in logs(stacks).values()))


def test_total_order_with_concurrent_senders():
    world, stacks = abcast_group(seed=2)
    for i in range(8):
        for pid in stacks:
            bcast(stacks, pid, f"{pid}:{i}")
    expected = 8 * len(stacks)
    assert run_until(
        world,
        lambda: all(len(log) == expected for log in logs(stacks).values()),
        timeout=30_000,
    )
    orders = list(logs(stacks).values())
    assert all(order == orders[0] for order in orders)


def test_uniform_integrity_no_duplicates():
    world, stacks = abcast_group(seed=3, link=LinkModel(1.0, 2.0, drop_prob=0.1, dup_prob=0.1))
    for i in range(10):
        bcast(stacks, "p00", i)
    assert run_until(
        world, lambda: all(len(log) == 10 for log in logs(stacks).values()), timeout=60_000
    )
    world.run_for(2_000.0)
    for log in logs(stacks).values():
        assert sorted(log) == list(range(10))


def test_progress_with_minority_crash_no_membership_change_needed():
    # Section 3.1.1: the consensus-based abcast works without blocking
    # even if up to f < n/2 crashes occur, with NO exclusion required.
    world, stacks = abcast_group(count=5, seed=4)
    world.run_for(50.0)
    world.crash("p04")
    for i in range(5):
        bcast(stacks, "p00", f"after-{i}")
    alive = [pid for pid in stacks if pid != "p04"]
    assert run_until(
        world,
        lambda: all(len(logs(stacks)[pid]) == 5 for pid in alive),
        timeout=30_000,
    )
    orders = [logs(stacks)[pid] for pid in alive]
    assert all(order == orders[0] for order in orders)


def test_crashed_process_prefix_property():
    # Whatever the crashed process delivered must be a prefix of what the
    # survivors delivered (uniform total order).
    world, stacks = abcast_group(seed=5)
    for i in range(6):
        bcast(stacks, "p01", i)
    world.run_for(120.0)
    world.crash("p02")
    assert run_until(
        world,
        lambda: all(len(logs(stacks)[pid]) == 6 for pid in ("p00", "p01")),
        timeout=30_000,
    )
    crashed_log = logs(stacks)["p02"]
    survivor_log = logs(stacks)["p00"]
    assert survivor_log[: len(crashed_log)] == crashed_log


def test_batching_multiple_messages_per_instance():
    world, stacks = abcast_group(seed=6)
    for i in range(20):
        bcast(stacks, "p00", i)
    assert run_until(
        world, lambda: all(len(log) == 20 for log in logs(stacks).values()), timeout=30_000
    )
    # 20 messages injected at once should need far fewer than 20 instances.
    assert world.metrics.counters.get("abcast.instances") < 20 * 3


def test_latency_recorded_for_first_delivery():
    world, stacks = abcast_group(seed=7)
    bcast(stacks, "p00", "timed")
    assert run_until(world, lambda: all(len(log) == 1 for log in logs(stacks).values()))
    stats = world.metrics.latency.stats("abcast")
    assert stats.count == 1
    assert stats.mean > 0


def test_outsider_retains_replayed_decisions_instead_of_applying_them():
    """A stack outside the group — a joiner, or a recovered incarnation
    still waiting for its state snapshot — can receive replayed DECIDE
    broadcasts (a lazy-relay suspicion flood re-injects retained rbcast
    traffic at whoever looks suspicious).  Applying them would deliver
    the very prefix the snapshot covers, from position zero; the
    explorer caught a recovered process delivering positions 0..6 and
    then jumping to its snapshot position (seed 30).  The outsider must
    retain the decisions and deliver only past its snapshot, once in."""
    from repro.sim.world import add_joiner

    world, stacks = abcast_group()
    for i in range(3):
        bcast(stacks, "p00", f"m{i}")
    assert run_until(
        world, lambda: all(len(log) == 3 for log in logs(stacks).values())
    )
    joiner = add_joiner(world, stacks)
    ghost = stacks["p00"].process.msg_ids.message("replayed-prefix")
    joiner.abcast._on_decide((0, 0), ("p00", (ghost.id,)))
    world.run_for(50.0)
    assert joiner.abcast.delivered_log == []  # retained, not applied
    # And no repair either: an outsider must not PULL for bodies of a
    # prefix its state snapshot is about to cover.
    assert world.metrics.counters.get("abcast.pulls_sent") == 0
    joiner.membership.request_join("p00")
    assert run_until(
        world, lambda: joiner.membership.current_view() is not None, timeout=20_000
    )
    bcast(stacks, "p00", "m3")
    assert run_until(
        world,
        lambda: any(m.payload == "m3" for m in joiner.abcast.delivered_log),
        timeout=20_000,
    )
    # Nothing below the snapshot position was ever (re)delivered.
    payloads = [m.payload for m in joiner.abcast.delivered_log]
    assert "replayed-prefix" not in payloads
    assert not any(p in payloads for p in ("m0", "m1", "m2"))
