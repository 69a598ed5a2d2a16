"""Stability-based garbage collection in rbcast: unit tests, and the
full-stack drain checks (every dedup entry and retained packet is
collected once traffic stops — through a rejoin, too)."""

import random

import pytest

from repro.broadcast.rbcast import ReliableBroadcast
from repro.core.api import GroupCommunication
from repro.core.new_stack import StackConfig, build_new_group, enable_recovery
from repro.net.message import MsgId
from repro.net.reliable import ReliableChannel
from repro.net.topology import LinkModel
from repro.net.wire import Blob
from repro.sim.world import World

from tests.abcast.test_id_only_ordering import abcast_group, bcast, logs
from tests.conftest import run_until


def rb_world(count=3, seed=1, link=None, stability_interval=200.0):
    world = World(seed=seed, default_link=link or LinkModel(1.0, 1.0))
    pids = world.spawn(count)
    rbs = {}
    delivered = {pid: [] for pid in pids}
    for pid in pids:
        channel = ReliableChannel(world.process(pid))
        rb = ReliableBroadcast(
            world.process(pid),
            channel,
            lambda p=pids: list(p),
            stability_interval=stability_interval,
        )
        rb.register("t", lambda o, p, m, pid=pid: delivered[pid].append(p))
        rbs[pid] = rb
    world.start()
    return world, rbs, delivered


def test_dedup_set_is_pruned_after_stability():
    world, rbs, delivered = rb_world()
    for i in range(50):
        rbs["p00"].rbcast("t", i)
    assert run_until(world, lambda: all(len(d) == 50 for d in delivered.values()))
    world.run_for(1_500.0)  # a few stability rounds
    assert all(rb.seen_size() == 0 for rb in rbs.values())
    assert world.metrics.counters.get("rb.stable_pruned") >= 150


def test_memory_stays_bounded_under_sustained_traffic():
    world, rbs, delivered = rb_world(seed=2)
    peak = 0
    for batch in range(10):
        for i in range(20):
            rbs["p01"].rbcast("t", (batch, i))
        world.run_for(600.0)
        peak = max(peak, max(rb.seen_size() for rb in rbs.values()))
    world.run_for(1_500.0)
    # 200 messages total, but the dedup set never held anywhere near all
    # of them, and it drains completely once traffic stops.
    assert peak < 120
    assert all(rb.seen_size() == 0 for rb in rbs.values())
    assert all(len(d) == 200 for d in delivered.values())


def test_pruned_packets_stay_dead():
    world, rbs, delivered = rb_world(seed=3)
    mid = rbs["p00"].rbcast("t", "once")
    assert run_until(world, lambda: all(d == ["once"] for d in delivered.values()))
    world.run_for(1_500.0)
    assert rbs["p01"].seen_size() == 0
    # Replay the exact packet: the pruned-watermark check rejects it.
    rbs["p00"].channel.send("p01", "rb", (mid, "p00", "t", "once"))
    world.run_for(200.0)
    assert delivered["p01"] == ["once"]


def test_no_pruning_while_a_member_is_unreachable():
    # A member that cannot report keeps everything unstable — pruning
    # must not run ahead of the slowest member (safety condition).
    world, rbs, delivered = rb_world(seed=4)
    world.run_for(300.0)
    world.split([["p00", "p01"], ["p02"]])
    for i in range(10):
        rbs["p00"].rbcast("t", i)
    world.run_for(2_000.0)
    assert rbs["p00"].seen_size() >= 10  # p02 never covered them
    world.heal()
    assert run_until(world, lambda: len(delivered["p02"]) == 10, timeout=30_000)
    assert run_until(world, lambda: rbs["p00"].seen_size() == 0, timeout=30_000)


def test_stability_can_be_disabled():
    world, rbs, delivered = rb_world(seed=5, stability_interval=None)
    for i in range(10):
        rbs["p00"].rbcast("t", i)
    assert run_until(world, lambda: all(len(d) == 10 for d in delivered.values()))
    world.run_for(3_000.0)
    assert all(rb.seen_size() == 10 for rb in rbs.values())


def test_install_snapshot_absorbs_what_was_held_out_of_order():
    # A joiner can hold packets of an origin out of order when its
    # snapshot arrives.  The installed mark covers what lies at or below
    # it (never collected otherwise: the watermark has passed it) and
    # runs on through what now touches it (the gossiped mark would lag
    # until that origin's next packet).
    world, rbs, delivered = rb_world(count=1, stability_interval=None)
    rb = rbs["p00"]
    packet = lambda seq: (MsgId("p09!rb", seq), "p09", "t", seq)
    for seq in (2, 3, 6, 8):
        rb._on_message("p09", packet(seq))
    assert delivered["p00"] == [2, 3, 6, 8]
    assert rb.snapshot() == {"watermarks": {"p09!rb": -1}}
    assert rb.seen_size() == 4
    rb.install_snapshot({"watermarks": {"p09!rb": 5}})
    assert rb.snapshot() == {"watermarks": {"p09!rb": 6}}
    assert rb._above["p09!rb"] == {8}
    assert rb.seen_size() == 2  # 6 and 8: delivered, above the stable floor
    # Below the mark is dead, above it is live, and the run closes.
    rb._on_message("p09", packet(4))
    rb._on_message("p09", packet(6))
    rb._on_message("p09", packet(7))
    assert delivered["p00"] == [2, 3, 6, 8, 7]
    assert rb.snapshot() == {"watermarks": {"p09!rb": 8}}
    assert rb._above["p09!rb"] == set()
    # A snapshot behind our own mark moves nothing.
    rb.install_snapshot({"watermarks": {"p09!rb": 1}})
    assert rb.snapshot() == {"watermarks": {"p09!rb": 8}}


def test_delivery_correct_under_loss_with_gc_enabled():
    world, rbs, delivered = rb_world(
        seed=6, link=LinkModel(1.0, 3.0, drop_prob=0.2), stability_interval=150.0
    )
    for i in range(30):
        rbs["p02"].rbcast("t", i)
    assert run_until(
        world, lambda: all(len(d) == 30 for d in delivered.values()), timeout=120_000
    )
    world.run_for(3_000.0)
    for d in delivered.values():
        assert sorted(d) == list(range(30))  # exactly once each
    assert all(rb.seen_size() == 0 for rb in rbs.values())


def test_full_stack_memory_stays_bounded_under_sustained_traffic():
    # Soak on the real stack: nothing but stability decides what rbcast
    # keeps, so sustained abcast traffic must not accumulate retained
    # state anywhere — in rbcast or in the ordering layer above it.
    world, stacks = abcast_group(seed=6)
    senders = list(stacks)
    peak = 0
    total = 0
    for batch in range(8):
        for i in range(15):
            bcast(stacks, senders[i % len(senders)], (batch, i))
            total += 1
        world.run_for(600.0)
        peak = max(peak, max(s.rbcast.seen_size() for s in stacks.values()))
    assert run_until(
        world,
        lambda: all(len(log) == total for log in logs(stacks).values()),
        timeout=60_000,
    )
    world.run_for(3_000.0)  # quiesce: stability rounds with no traffic
    # 120 messages flowed; the dedup set never held anywhere near all of
    # them and it drains completely once the group goes quiet.
    assert peak < 90
    for stack in stacks.values():
        ab = stack.abcast
        assert stack.rbcast.seen_size() == 0
        assert stack.rbcast.retained_size() == 0
        assert not ab._pending and not ab._assigned
        assert not ab.waiting_on()


@pytest.mark.parametrize("seed", [1, 5, 13, 19])
def test_stability_gc_drains_after_a_rejoin_under_flood(seed):
    # The join-window hole: a survivor rbcasts in the few ms between the
    # sponsor's snapshot cut and its own install of the rejoiner's view,
    # so the packet is never addressed to the rejoiner.  Without a
    # receiver-side repair the rejoiner keeps the hole, nothing of that
    # origin becomes stable again and every member retains its packets
    # and dedup entries for ever (these seeds stalled at 27-60 entries).
    world = World(seed=seed, default_link=LinkModel(3.0, 8.0))
    stacks = build_new_group(world, 5, config=StackConfig())
    apis = {pid: GroupCommunication(s) for pid, s in stacks.items()}
    enable_recovery(
        world, stacks, config=StackConfig(),
        on_rebuild=lambda pid, s: apis.__setitem__(pid, GroupCommunication(s)),
    )
    world.start()
    rng = random.Random(seed)
    survivors = sorted(stacks)[1:]
    t, i = rng.expovariate(0.06), 0
    while t < 6_000.0:  # Poisson, 60 ops/s
        world.scheduler.at(t, lambda i=i: apis[survivors[i % 4]].abcast(("op", i)))
        t, i = t + rng.expovariate(0.06), i + 1
    world.crash("p00", at=1_000.0)
    world.recover("p00", at=4_000.0)
    world.run_for(11_000.0)  # 6 s of traffic, then 5 s quiet
    assert len(stacks["p00"].membership.current_members()) == 5
    for stack in stacks.values():
        assert stack.rbcast.seen_size() == 0
        assert stack.rbcast.retained_size() == 0


def test_fault_free_ring_run_sends_no_repair_traffic():
    # Regression for the sender-side anti-entropy misfire (228 re-sent
    # 4 KiB packets on this run, all duplicates): a stale stability
    # report is no proof of a hole.  With nothing lost and nobody
    # suspected, no repair path may fire at all.  abcast's wait for a
    # body an ENDSTAGE names does begin, routinely — the ids go direct
    # while the CHK is still on the chain — and ends by that CHK a hop
    # later: a body in flight is not a body lost, nothing is asked for.
    world = World(seed=3, default_link=LinkModel(3.0, 8.0, bytes_per_ms=2000.0))
    stacks = build_new_group(world, 5, config=StackConfig(dissemination="ring"))
    apis = {pid: GroupCommunication(s) for pid, s in stacks.items()}
    world.start()
    pids = sorted(stacks)
    rng = random.Random(3)
    t = 0.0
    for i in range(150):  # Poisson, 15 ops/s for ~10 s, round-robin
        t += rng.expovariate(0.015)
        world.scheduler.at(
            t, lambda i=i: apis[pids[i % 5]].abcast(("blob", i, Blob(4096)))
        )
    world.run_for(t + 2_000.0)
    # (Counted where the ops surface: abcast a-delivers ENDSTAGEs, each
    # ordering the ids of as many ops as were waiting behind it.)
    assert all(len(s.gbcast.delivered_log) == 150 for s in stacks.values())
    counters = world.metrics.counters
    assert counters.get("rb.forwarded") > 0
    assert counters.get("gbcast.tail_ordered") > 0
    assert counters.get("abcast.decide_before_dissemination") > 0
    assert counters.get("rb.nacks_sent") == 0
    assert counters.get("abcast.pulls_sent") == 0
    assert counters.get("rb.overlay_repairs") == 0
