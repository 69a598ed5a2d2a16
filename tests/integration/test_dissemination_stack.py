"""Dissemination overlay on the full Fig. 9 stack.

Two guarantees ride this file: (1) the flood default is *byte-identical*
to the pre-overlay stack — an explicit ``dissemination="flood"`` and a
config that never mentions the knob replay the same seed to the same
counters, logs and clock, with every overlay code path provably idle;
(2) ring dissemination delivers and converges end-to-end, including
through a crash-recover cycle that exercises the suspicion re-route and
the suspicion-edge NACK backstop under real membership churn.
"""

import pytest

from repro.broadcast.rbcast import DIRECT_MAX_BYTES, origin_pid
from repro.checkers import app_history, check_agreement, check_conflict_order, check_no_duplicates
from repro.core.api import GroupCommunication
from repro.core.new_stack import StackConfig, build_new_group, enable_recovery
from repro.gbcast.conflict import RBCAST_ABCAST
from repro.gbcast.thrifty import CHK_TAG
from repro.monitoring.component import MonitoringPolicy
from repro.net.topology import LinkModel
from repro.net.wire import Blob, payload_size
from repro.sim.world import World

from tests.abcast.test_id_only_ordering import bcast, logs
from tests.conftest import edge_nacks, run_until


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


def test_ring_stack_survives_crash_and_recovery():
    # A member of the ring crashes mid-run and later rejoins: delivery
    # must continue for the survivors (suspicion re-route + NACK
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


# ----------------------------------------------------------------------
# What orders goes direct, what is ordered takes the ring
# ----------------------------------------------------------------------
def _tap_rbcast(world, stacks):
    """Record ``(tag, rb mid) -> {pid: r-delivery time}`` and the payload
    size of every rbcast packet, at every member."""
    arrivals, sizes = {}, {}
    for pid, stack in stacks.items():
        for tag, handler in list(stack.rbcast._handlers.items()):

            def tapped(origin, payload, mid, pid=pid, tag=tag, handler=handler):
                arrivals.setdefault((tag, mid), {})[pid] = world.now
                sizes[(tag, mid)] = payload_size(payload)
                handler(origin, payload, mid)

            stack.rbcast._handlers[tag] = tapped
    return arrivals, sizes


def test_ordering_traffic_takes_one_leg_and_bodies_reach_the_closer_first():
    # Jitter-free 5 ms links with the bandwidth term; a link idle for the
    # 1 ms coalescing window sends at once, so a direct leg is
    # 5 + size / 2000 ms.  Each member in turn g-broadcasts two
    # conflicting 4 KiB ops back to back, so the closer p00 meets a
    # conflict, atomically broadcasts one id-only ENDSTAGE and decides it.
    world = World(seed=1, default_link=LinkModel(5.0, 0.0, bytes_per_ms=2000.0))
    stacks = build_new_group(world, 5, config=StackConfig(dissemination="ring"))
    apis = {pid: GroupCommunication(s) for pid, s in stacks.items()}
    arrivals, sizes = _tap_rbcast(world, stacks)
    world.start()
    pids = sorted(stacks)
    for turn, pid in enumerate(pids):
        for k in range(2):
            world.scheduler.at(
                200.0 + 300.0 * turn,
                lambda pid=pid, k=k: apis[pid].abcast((pid, k, Blob(4096))),
            )
    world.run_for(200.0 + 300.0 * len(pids) + 500.0)
    assert all(len(s.gbcast.delivered_log) == 10 for s in stacks.values())

    def legs(key):
        """Per peer: how long after the origin's own r-delivery."""
        _tag, mid = key
        times = arrivals[key]
        sent = times[origin_pid(mid.sender)]
        return {pid: t - sent for pid, t in times.items() if pid != origin_pid(mid.sender)}

    ordering = [key for key in arrivals if sizes[key] <= DIRECT_MAX_BYTES]
    bodies = [key for key in arrivals if sizes[key] > DIRECT_MAX_BYTES]
    assert {tag for tag, _ in ordering} == {"cons.decide", "abc.msg"}
    assert {tag for tag, _ in bodies} == {"gb.chk"} and len(bodies) == 10
    for key in ordering:
        delays = legs(key)
        assert len(delays) == 4
        if arrivals[key]["p00"] < 500.0:
            # p00's own turn: its ENDSTAGE shares the datagram to its
            # chain successor with its two bodies.  One leg, a heavy one.
            assert all(d < 2 * 6.0 for d in delays.values()), (key, delays)
        else:
            # The head is a leaf: its links carry nobody's bodies, and
            # what it orders is one light leg from every peer — under
            # the 7.1 ms of a body's hop.
            assert all(5.0 < d < 5.2 for d in delays.values()), (key, delays)
    counters = world.metrics.counters
    # rb.forwarded counts bodies only: origin p00 walks the plain chain
    # (3 forwards), every other origin a chain one member shorter (2).
    assert counters.get("rb.forwarded") == 2 * (3 + 4 * 2)
    assert counters.get("rb.relayed") == 0
    # A CHK from p02: the closer and the chain's first member after one
    # hop, the last member (p01, via p03 and p04) after three.
    # (The op's two bodies share each hop's datagram: 2 x 4 146 B.)  The
    # closer's leg also waits one coalescing window: p02's keep-alive to
    # the watcher left half a millisecond before its turn.
    hop = 5.0 + 2 * 4146 / 2000.0
    chk = next(key for key in bodies if origin_pid(key[1].sender) == "p02")
    delays = legs(chk)
    assert delays["p00"] == pytest.approx(delays["p03"] + 1.0)
    assert abs(delays["p03"] - hop) < 0.2
    assert abs(delays["p04"] - 2 * hop) < 0.4
    assert abs(delays["p01"] - 3 * hop) < 0.6
    assert counters.get("rb.nacks_sent") == counters.get("abcast.pulls_sent") == 0


def _who_orders(world, stacks, pid):
    """The three places that say who orders, read at ``pid``: the
    overlay's head, the monitor's watcher (whom generic broadcast expects
    to close the stage) with nobody suspected and round 0's coordinator
    of the next consensus instance."""
    stack = stacks[pid]
    members = stack.membership.current_members()
    coordinators = []
    real = stack.consensus.propose

    def spy(key, value, participants):
        real(key, value, participants)
        coordinators.append(stack.consensus._instances[key].coordinator(0))

    stack.consensus.propose = spy
    bcast(stacks, pid, ("probe", pid, world.now))
    assert run_until(world, lambda: bool(coordinators), timeout=1_000)
    stack.consensus.propose = real
    assert not set(members) & stack.suspicion_monitor.suspects
    return {
        stack.rbcast.overlay.head(members),
        stack.suspicion_monitor.watcher,
        coordinators[0],
    }


def test_head_closer_and_round0_coordinator_are_one_member_across_view_changes():
    # Three expressions of one fact: they read the same member list in
    # the same order, so an exclusion and a re-admission (which lists the
    # rejoiner *last*: p00 sorts first and orders nothing) move all three
    # together.  A head taken from the sorted ring would drift here.
    config = StackConfig(
        dissemination="ring", monitoring=MonitoringPolicy(exclusion_timeout=300.0)
    )
    world = World(seed=17, default_link=LinkModel(1.0, 2.0))
    stacks = build_new_group(world, 4, config=config)
    enable_recovery(world, stacks, config=config)
    world.start()
    world.run_for(50.0)
    assert all(_who_orders(world, stacks, pid) == {"p00"} for pid in sorted(stacks))

    world.crash("p00")
    survivors = ("p01", "p02", "p03")
    assert run_until(
        world,
        lambda: all(
            stacks[pid].membership.current_members() == list(survivors) for pid in survivors
        ),
        timeout=5_000,
    )
    assert all(_who_orders(world, stacks, pid) == {"p01"} for pid in survivors)

    world.recover("p00")
    rejoined = ["p01", "p02", "p03", "p00"]
    assert run_until(
        world,
        lambda: all(s.membership.current_members() == rejoined for s in stacks.values()),
        timeout=5_000,
    )
    world.run_for(100.0)
    assert all(_who_orders(world, stacks, pid) == {"p01"} for pid in sorted(stacks))


def test_one_sender_mixing_sizes_keeps_order_per_route_only():
    # p02 alternates 16 B and 4 KiB g-broadcasts, 5 ms apart: the small
    # ones go direct, the large ones round the ring (p01 is three hops
    # away), so at r-delivery a small message overtakes the large one
    # sent before it.  What generic broadcast promises is untouched —
    # no duplicates, agreement, conflicting pairs in one order — and
    # each route by itself keeps the sender's order.  Sender FIFO
    # *across* the routes is not promised over an overlay
    # (``fifo_checkable()``, ROADMAP item 6) and not asserted here.
    world = World(seed=5, default_link=LinkModel(3.0, 4.0, bytes_per_ms=2000.0))
    stacks = build_new_group(world, 5, config=StackConfig(dissemination="ring"))
    apis = {pid: GroupCommunication(s) for pid, s in stacks.items()}
    rdelivered = {pid: [] for pid in stacks}
    for pid, stack in stacks.items():
        handler = stack.rbcast._handlers[CHK_TAG]

        def tapped(origin, message, mid, pid=pid, handler=handler):
            rdelivered[pid].append(message.payload)
            handler(origin, message, mid)

        stack.rbcast._handlers[CHK_TAG] = tapped
    world.start()
    for i in range(40):
        body = Blob(4096 if i % 2 == 0 else 16)
        send = apis["p02"].abcast if i % 3 == 0 else apis["p02"].rbcast
        world.scheduler.at(100.0 + 5.0 * i, lambda send=send, i=i, body=body: send((i, body)))
    world.run_for(2_000.0)

    history = {pid: app_history(stack) for pid, stack in stacks.items()}
    assert all(len(seq) == 40 for seq in history.values())
    assert check_no_duplicates(history).ok
    assert check_agreement(history).ok
    assert check_conflict_order(history, RBCAST_ABCAST).ok
    for pid, seq in rdelivered.items():
        for size in (16, 4096):
            route = [i for i, body in seq if body.size == size]
            assert route == sorted(route), (pid, size, route)
    # The caveat is real: at the end of the chain the routes interleave
    # out of send order.
    at_p01 = [i for i, _body in rdelivered["p01"]]
    assert at_p01 != sorted(at_p01)


def test_mid_chain_crash_is_rerouted_on_the_watchers_report():
    # Ring, n = 5, 4 KiB bodies every 10 ms, senders in turn; p03 — a
    # chain member, watched first-hand by the head alone — crashes at
    # 600 ms.  The head times it out and its report reaches p03's chain
    # predecessors one hop later, *ahead of* the head's own repair
    # requests on the same FIFO links: from then on they route around
    # p03, every body is delivered at every survivor, and besides one
    # NACK per unsuspected peer on each survivor's edge the stability
    # tick asks what the all-pairs mesh asked on this schedule (1-2
    # requests, seeds 1-8).
    world = World(seed=1, default_link=LinkModel(3.0, 8.0, bytes_per_ms=2000.0))
    stacks = build_new_group(world, 5, config=StackConfig(dissemination="ring"))
    world.start()
    pids, sent = sorted(stacks), 0
    for i in range(120):
        pid, at = pids[i % 5], 20.0 + 10.0 * i
        if pid != "p03" or at < 600.0:
            world.scheduler.at(at, lambda p=pid, i=i: bcast(stacks, p, ("op", p, i, Blob(4096))))
            sent += 1
    world.crash("p03", at=600.0)
    world.run_for(3_000.0)
    survivors = [pid for pid in pids if pid != "p03"]
    assert all(len(logs(stacks)[pid]) == sent for pid in survivors)
    suspected = {
        record.pid: (record.time, record.details.get("via"))
        for record in world.trace.select(component="fd", event="suspect")
        if record.details["timeout"] == StackConfig().suspicion_timeout
    }
    assert suspected["p00"][1] is None
    timeout, keepalive, hop = 60.0, 15.0, 1.0 + 11.0 + 2.0 * 4_300 / 2_000.0
    assert suspected["p00"][0] <= 600.0 + timeout + keepalive
    for pid in ("p01", "p02", "p04"):
        at, via = suspected[pid]
        assert via == "p00" and at <= suspected["p00"][0] + hop
    for pid in survivors:
        assert edge_nacks(world, pid, "p03") == [q for q in survivors if q != pid]
    counters = world.metrics.counters
    assert counters.get("rb.reroutes") > 0
    assert counters.get("rb.nacks_sent") <= len(survivors) * 3 + 2
