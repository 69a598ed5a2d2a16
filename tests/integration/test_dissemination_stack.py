"""Dissemination overlay on the full Fig. 9 stack.

Two guarantees ride this file: (1) the flood default is *byte-identical*
to the pre-overlay stack — an explicit ``dissemination="flood"`` and a
config that never mentions the knob replay the same seed to the same
counters, logs and clock, with every overlay code path provably idle;
(2) ring/tree dissemination delivers and converges end-to-end, including
through a crash-recover cycle that exercises the suspicion re-route and
the retained-packet flood backstop under real membership churn.
"""

from repro.core.new_stack import StackConfig, build_new_group, enable_recovery
from repro.net.topology import LinkModel
from repro.net.wire import Blob
from repro.sim.world import World

from tests.abcast.test_id_only_ordering import bcast, logs
from tests.conftest import run_until


def _traffic_run(config, seed=23, payload_bytes=2048, count=3, rounds=8):
    world = World(seed=seed, default_link=LinkModel(3.0, 8.0))
    stacks = build_new_group(world, count, config=config)
    world.start()
    total = 0
    for i in range(rounds):
        for pid in list(stacks):
            payload = ("op", pid, i, Blob(payload_bytes))
            world.scheduler.at(
                float(5 * i), lambda p=pid, pl=payload: bcast(stacks, p, pl)
            )
            total += 1
    assert run_until(
        world,
        lambda: all(len(log) == total for log in logs(stacks).values()),
        timeout=120_000,
    )
    world.run_for(1_000.0)
    return world, stacks


def test_flood_dissemination_is_byte_identical_to_the_pre_overlay_default():
    # The pinned compatibility claim: a config that never mentions the
    # dissemination knob and an explicit "flood" replay the same seed to
    # identical *complete* counter snapshots (every net.* and rb.* value,
    # per-node byte attribution included), identical delivery orders, and
    # the identical simulated clock.  The overlay counters prove the new
    # code paths never ran.
    def fingerprint(config):
        world, stacks = _traffic_run(config)
        assert all(s.rbcast.overlay is None for s in stacks.values())
        counters = world.metrics.counters.snapshot()
        assert counters.get("rb.forwarded", 0) == 0
        assert counters.get("rb.reroutes", 0) == 0
        return logs(stacks), counters, world.now, world.scheduler.events_processed

    implicit = fingerprint(StackConfig())
    explicit = fingerprint(StackConfig(dissemination="flood"))
    assert implicit == explicit


def test_ring_dissemination_full_stack_delivers_everything():
    world, stacks = _traffic_run(StackConfig(dissemination="ring"))
    counters = world.metrics.counters
    # The overlay really carried the payloads: members forwarded packets
    # along the ring instead of the origin unicasting to everyone.
    assert counters.get("rb.forwarded") > 0
    assert all(s.rbcast.overlay is not None for s in stacks.values())
    # Total order held (same log everywhere).
    all_logs = list(logs(stacks).values())
    assert all(log == all_logs[0] for log in all_logs)


def test_tree_dissemination_full_stack_delivers_everything():
    world, stacks = _traffic_run(StackConfig(dissemination="tree"), count=4)
    assert world.metrics.counters.get("rb.forwarded") > 0
    all_logs = list(logs(stacks).values())
    assert all(log == all_logs[0] for log in all_logs)


def test_ring_stack_survives_crash_and_recovery():
    # A member of the ring crashes mid-run and later rejoins: delivery
    # must continue for the survivors (suspicion re-route + flood
    # backstop + view change) and the recovered member catches up.
    config = StackConfig(dissemination="ring")
    world = World(seed=31, default_link=LinkModel(2.0, 6.0))
    stacks = build_new_group(world, 3, config=config)
    enable_recovery(world, stacks, config=config)
    world.start()
    for i in range(30):
        world.scheduler.at(
            20.0 + 25.0 * i,
            lambda i=i: bcast(stacks, "p00", ("cmd", i, Blob(2048))),
        )
    world.crash("p01", at=300.0)
    world.recover("p01", at=900.0)
    alive = lambda: [s for s in stacks.values() if not s.process.crashed]
    assert run_until(
        world,
        lambda: len(alive()) == 3
        and all(
            len(
                [m for m in s.abcast.delivered_log if not m.msg_class.startswith("_")]
            )
            >= 30
            for s in alive()
            if s.membership.current_view() is not None
        ),
        timeout=60_000,
    )
    world.run_for(2_000.0)
    counters = world.metrics.counters
    assert counters.get("rb.forwarded") > 0
    # The never-crashed members agree on the full order; the rejoiner
    # resumed from its state snapshot, so its (shorter) log must be a
    # suffix of that agreed order.
    final = logs(stacks)
    assert len(final["p00"]) >= 30
    assert final["p00"] == final["p02"]
    tail = final["p01"]
    assert final["p00"][len(final["p00"]) - len(tail):] == tail
