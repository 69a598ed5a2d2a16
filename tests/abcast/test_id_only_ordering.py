"""Id-only ordering: dissemination/ordering separation and repair.

Consensus proposals carry ``(proposer, (MsgId, ...))`` vectors, never
bodies — so a process can learn a decision *before* rbcast hands it the
referenced bodies (decide-before-dissemination).  These tests pin down
how abcast closes that window through ``rbcast.request_repair``:
proposer first, rotation past a crashed proposer, the end-to-end
blocked-link race, the post-snapshot laggard, the retry timer's life
cycle — and the determinism contract (same seed → byte-identical
counters, logs and clock, with the bandwidth term off).

Every body here is disseminated by rbcast itself; the window is opened
by a directed link that drops everything from the sender to the victim
while the coordinator's DECIDE arrives fine.
"""

from __future__ import annotations

from repro.abcast.consensus_based import REPAIR_INTERVAL
from repro.core.new_stack import StackConfig, build_new_group
from repro.monitoring.component import MonitoringPolicy
from repro.net.topology import LinkModel
from repro.net.wire import Blob
from repro.sim.world import World

from tests.conftest import run_until


def abcast_group(count=3, seed=1, link=None, **cfg_kwargs):
    config = StackConfig(**cfg_kwargs) if cfg_kwargs else None
    world = World(seed=seed, default_link=link or LinkModel(1.0, 1.0))
    stacks = build_new_group(world, count, config=config)
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


def test_proposals_carry_ids_not_bodies():
    # The ordering layer must never see a payload: spy on what abcast
    # hands consensus and check only MsgIds ride the proposal.
    world, stacks = abcast_group()
    proposed = []
    original = stacks["p00"].consensus.propose

    def spy(key, value, group):
        proposed.append(value)
        return original(key, value, group)

    stacks["p00"].consensus.propose = spy
    bcast(stacks, "p00", ("big-body", Blob(4096)))
    assert run_until(world, lambda: all(len(log) == 1 for log in logs(stacks).values()))
    assert proposed, "p00 should have proposed its own broadcast"
    for proposer, batch_ids in proposed:
        assert proposer == "p00"
        for mid in batch_ids:
            # MsgIds, not AppMessages: no payload attribute at all.
            assert not hasattr(mid, "payload")


WALL = LinkModel(1.0, 1.0, drop_prob=1.0)
OPEN = LinkModel(1.0, 1.0)


def patient_group(count=3, seed=9):
    """A group that neither suspects nor excludes within a test's span."""
    return abcast_group(
        count=count,
        seed=seed,
        suspicion_timeout=10_000.0,
        monitoring=MonitoringPolicy(exclusion_timeout=60_000.0),
    )


def record_repair_requests(stack):
    """Whom ``stack`` asks for repairs, in order (requests still go out)."""
    asked = []
    real = stack.rbcast.request_repair

    def spy(peer):
        asked.append(peer)
        real(peer)

    stack.rbcast.request_repair = spy
    return asked


def blocked(stack):
    return bool(stack.abcast.waiting_on())


def payloads(stack):
    return [m.payload for m in stack.abcast.delivered_log]


def test_repair_asks_proposer_first():
    # p02 learns a decision naming a body that p01's rbcast cannot get
    # to it: one request to the proposer (the coordinator p00, which
    # retains p01's packet like every member) must repair it.
    world, stacks = patient_group()
    asked = record_repair_requests(stacks["p02"])
    world.transport.set_link("p01", "p02", WALL)
    bcast(stacks, "p01", "repair-me")
    assert run_until(world, lambda: payloads(stacks["p02"]) == ["repair-me"], timeout=400)
    assert asked == ["p00"]
    counters = world.metrics.counters
    assert counters.get("abcast.decide_before_dissemination") == 1
    assert counters.get("abcast.pulls_sent") == 1  # proposer answered first try
    assert counters.get("abcast.repaired") == 1
    assert counters.get("rb.nacks_sent") == 1
    assert counters.get("rb.overlay_repairs") >= 1


def test_a_lost_body_is_asked_for_one_interval_after_the_block():
    # The first request waits like every later one — over an overlay the
    # body is usually a hop behind the ids, and a body in flight is not
    # a body lost — but no longer than that: what p01's rbcast cannot
    # deliver is asked for within 2 x REPAIR_INTERVAL of the block, and
    # the decision's proposer is asked.
    world, stacks = patient_group()
    asked = []
    real = stacks["p02"].rbcast.request_repair
    stacks["p02"].rbcast.request_repair = lambda peer: (
        asked.append((world.now, peer)),
        real(peer),
    )
    world.transport.set_link("p01", "p02", WALL)
    bcast(stacks, "p01", "lost")
    assert run_until(world, lambda: blocked(stacks["p02"]), timeout=400, step=0.1)
    blocked_at = world.now
    assert not asked
    assert run_until(world, lambda: payloads(stacks["p02"]) == ["lost"], timeout=400)
    ((asked_at, peer),) = asked
    assert peer == "p00"
    assert REPAIR_INTERVAL - 0.1 <= asked_at - blocked_at <= 2 * REPAIR_INTERVAL


def test_repair_rotation_falls_through_crashed_proposer():
    # The proposer crashes just as its decision spreads; the retry timer
    # must rotate to the remaining members: p01 next (whose answer hits
    # the same wall as its broadcast did), then p02, which serves.
    world, stacks = patient_group(count=4)
    asked = record_repair_requests(stacks["p03"])
    world.transport.set_link("p01", "p03", WALL)
    bcast(stacks, "p01", "survivor-serves")
    assert run_until(world, lambda: blocked(stacks["p03"]), timeout=400, step=0.1)
    world.crash("p00")  # the first request is still in flight to it
    assert run_until(
        world, lambda: payloads(stacks["p03"]) == ["survivor-serves"], timeout=400
    )
    assert asked == ["p00", "p01", "p02"]
    counters = world.metrics.counters
    assert counters.get("abcast.pulls_sent") == 3
    assert counters.get("abcast.repaired") == 1


def test_decide_before_dissemination_over_blocked_link():
    # End-to-end: p01's body cannot reach p02 (directed link drops
    # everything, lazy relay means nobody re-forwards it), but the
    # coordinator's DECIDE rbcast arrives fine.  p02 must block delivery
    # on the missing id and ask rbcast for a repair — total order intact.
    world, stacks = abcast_group(
        seed=9,
        suspicion_timeout=10_000.0,
        monitoring=MonitoringPolicy(exclusion_timeout=60_000.0),
    )
    world.transport.set_link("p01", "p02", LinkModel(1.0, 1.0, drop_prob=1.0))
    bcast(stacks, "p01", "through-the-wall")
    assert run_until(
        world,
        lambda: all(log == ["through-the-wall"] for log in logs(stacks).values()),
        timeout=20_000,
    )
    counters = world.metrics.counters
    assert counters.get("abcast.decide_before_dissemination") >= 1
    assert counters.get("abcast.pulls_sent") >= 1
    # The body reached p02 in answer to its NACK (p01's send never could).
    assert counters.get("abcast.repaired") >= 1
    orders = list(logs(stacks).values())
    assert all(order == orders[0] for order in orders)


def test_laggard_repairs_bodies_decided_past_its_snapshot():
    # The post-snapshot laggard: a stack resumes from a state snapshot
    # cut at instance k while the decision for instance k names a body
    # it never received.  install_snapshot itself — there is no later
    # "resume" — re-blocks the head it kept: one chain of repair
    # requests, not two, and nothing below the snapshot position is
    # redelivered.
    world, stacks = patient_group()
    for i in range(3):
        bcast(stacks, "p00", f"m{i}")
    assert run_until(world, lambda: all(len(log) == 3 for log in logs(stacks).values()))
    laggard = stacks["p02"].abcast
    cut = laggard.snapshot()  # position 3, nothing pending
    world.transport.set_link("p01", "p02", WALL)
    bcast(stacks, "p01", "decided-while-down")
    assert run_until(world, lambda: blocked(stacks["p02"]), timeout=400, step=0.1)
    world.transport.set_link("p00", "p02", WALL)  # nobody can serve for now
    world.run_for(200.0)
    counters = world.metrics.counters
    before = counters.get("abcast.pulls_sent")
    laggard.install_snapshot(cut)  # drops the old wait, applies what it kept
    assert blocked(stacks["p02"])
    world.run_for(500.0)
    # One request per 50 ms; a second, stale timer chain would double
    # this.
    assert 10 <= counters.get("abcast.pulls_sent") - before <= 12
    world.transport.set_link("p00", "p02", OPEN)
    assert run_until(
        world, lambda: "decided-while-down" in payloads(stacks["p02"]), timeout=2_000
    )
    assert counters.get("abcast.repaired") == 1
    # Nothing below the snapshot position was redelivered.
    assert payloads(stacks["p02"]) == ["m0", "m1", "m2", "decided-while-down"]


def test_body_arrival_stops_the_repair_requests():
    # While nobody can serve, the blocked head keeps asking every 50 ms;
    # once the body arrives (here: the channel's own retransmission gets
    # through the healed link) the timer must die with the blockage.
    world, stacks = patient_group()
    world.transport.set_link("p01", "p02", WALL)
    bcast(stacks, "p01", "raced")
    assert run_until(world, lambda: blocked(stacks["p02"]), timeout=400, step=0.1)
    world.transport.set_link("p00", "p02", WALL)
    world.run_for(300.0)
    counters = world.metrics.counters
    assert counters.get("abcast.pulls_sent") >= 6
    assert blocked(stacks["p02"])
    world.transport.set_link("p01", "p02", OPEN)
    assert run_until(world, lambda: payloads(stacks["p02"]) == ["raced"], timeout=2_000)
    assert not blocked(stacks["p02"])
    assert counters.get("abcast.repaired") == 1
    asked = counters.get("abcast.pulls_sent")
    world.run_for(500.0)
    assert counters.get("abcast.pulls_sent") == asked


def _traffic_fingerprint(seed: int, payload_bytes: int | None = 4096):
    """A bursty 3-sender run with Blob payloads; full determinism digest."""
    world = World(seed=seed, default_link=LinkModel(3.0, 8.0))
    stacks = build_new_group(world, 3)
    world.start()
    total = 0
    for i in range(6):
        for pid in list(stacks):
            payload = ("op", pid, i) if payload_bytes is None else (
                "op", pid, i, Blob(payload_bytes)
            )
            world.scheduler.at(
                float(5 * i), lambda p=pid, pl=payload: bcast(stacks, p, pl)
            )
            total += 1
    assert run_until(
        world,
        lambda: all(len(log) == total for log in logs(stacks).values()),
        timeout=60_000,
    )
    world.run_for(500.0)
    return (
        logs(stacks),
        world.metrics.counters.snapshot(),
        world.now,
    )


def test_same_seed_runs_are_byte_identical_with_bandwidth_off():
    # The determinism contract of the cost model: wire_size() is pure
    # accounting with the bandwidth term off — two same-seed runs agree
    # on every counter (including every net.bytes.* value), every
    # delivery order, and the simulated clock, at 4 KiB payloads.
    a = _traffic_fingerprint(seed=31)
    b = _traffic_fingerprint(seed=31)
    assert a == b
    # And the byte counters are actually live (not trivially zero).
    assert a[1].get("net.bytes.consensus", 0) > 0
    assert a[1].get("net.bytes.abcast", 0) > 0
