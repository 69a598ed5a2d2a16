"""Joining on PROPOSE: a proposal is ACKed when it arrives, in every run.

Over the ring overlay a body needs a hop per member while the
coordinator's PROPOSE goes direct.  A member used to start an instance
only once it had something to propose, so the PROPOSE waited in the
consensus pre-propose buffer for the body to come round — unless a
stale proposal of the member's own happened to be in flight at that
index, which ACKed at once.  A run flipped from the first behaviour to
the second at a sample-path-dependent moment and stayed (p50 120 vs
96 ms on the benchmark's ``bulk_ring``: its seed-to-seed spread).  Now
a solicited member joins with an empty id vector; these tests pin the
one behaviour that is left.
"""

from __future__ import annotations

import random

from repro.core.new_stack import StackConfig, build_new_group
from repro.net.topology import LinkModel
from repro.net.wire import Blob
from repro.sim.world import World

from tests.conftest import run_until

#: The benchmark's ``bulk_ring`` link: 3-11 ms, 2 MB/s.
BULK_LINK = LinkModel(3.0, 8.0, bytes_per_ms=2000.0)


def ring_group(count=5, seed=1, link=BULK_LINK):
    world = World(seed=seed, default_link=link)
    stacks = build_new_group(world, count, config=StackConfig(dissemination="ring"))
    world.start()
    return world, stacks


def logs(stacks):
    return {
        pid: [m.payload[0] for m in s.abcast.delivered_log if not m.msg_class.startswith("_")]
        for pid, s in stacks.items()
    }


def bcast(stacks, pid, tag):
    proc = stacks[pid].process
    stacks[pid].abcast.abcast(proc.msg_ids.message((tag, Blob(4096))))


def buffered_proposes(stacks):
    return [
        (pid, key)
        for pid, s in stacks.items()
        for key, msgs in s.consensus._pre_propose_buffer.items()
        for _src, payload in msgs
        if payload[0] == "PROPOSE"
    ]


def test_the_coordinator_decides_before_the_body_is_two_hops_round_the_ring():
    # Jitter-free links make the race exact: PROPOSE + ACK are two
    # direct legs (5 ms each, + 1 ms coalescing behind a datagram sent
    # within the last millisecond), the body needs 5 + 2 (4 KiB at
    # 2 MB/s) per hop, coalesced likewise.  A majority of five is the
    # coordinator and two ACKs; waiting for bodies, the second ACK
    # cannot leave p02 before the second hop lands.
    world, stacks = ring_group(link=LinkModel(5.0, 0.0, bytes_per_ms=2000.0))
    world.run_for(200.0)
    decided_at, body_at = [], {}
    stacks["p00"].consensus.on_decide(lambda _key, _value: decided_at.append(world.now))
    for pid in ("p01", "p02"):
        stacks[pid].rbcast.register(
            "probe", lambda *_args, pid=pid: body_at.setdefault(pid, world.now)
        )
    start = world.now
    stacks["p00"].rbcast.rbcast("probe", Blob(4096))  # same size, same route, same instant
    bcast(stacks, "p00", "m")
    assert run_until(world, lambda: all(log == ["m"] for log in logs(stacks).values()))
    assert body_at["p01"] - start < decided_at[0] - start < body_at["p02"] - start
    counters = world.metrics.counters
    assert counters.get("abcast.instances_joined") >= 2
    # The DECIDE goes direct and finds the chain's tail without the body:
    # each such wait ends by the ordinary packet a hop later, unasked.
    assert counters.get("abcast.decide_before_dissemination") > 0
    assert counters.get("rb.nacks_sent") == counters.get("abcast.pulls_sent") == 0


def test_no_propose_ever_waits_for_a_body_under_bulk_load():
    # The benchmark's bulk_ring in small: Poisson 15 ops/s of 4 KiB from
    # every member in turn.  Whatever the stale proposals of the moment,
    # no member of the group ever holds a PROPOSE in its buffer.
    world, stacks = ring_group(seed=3)
    pids = sorted(stacks)
    rng = random.Random(3)
    due, waited = 200.0, []
    for index in range(150):
        due += rng.expovariate(15 / 1000.0)
        while world.now < due:
            world.run_for(min(5.0, due - world.now))
            waited += buffered_proposes(stacks)
        bcast(stacks, pids[index % len(pids)], index)
    assert run_until(
        world, lambda: all(len(log) == 150 for log in logs(stacks).values()), timeout=5_000.0
    )
    assert not waited
    assert len({tuple(log) for log in logs(stacks).values()}) == 1


def test_an_estimate_does_not_make_the_coordinator_propose_nothing():
    # p01's ESTIMATE reaches the coordinator four ring hops before the
    # body does.  Only a PROPOSE solicits: a coordinator without a value
    # waits for one, or every broadcast would first decide an empty
    # vector.
    world, stacks = ring_group()
    world.run_for(200.0)
    decisions = []
    stacks["p00"].consensus.on_decide(lambda _key, value: decisions.append(value))
    bcast(stacks, "p01", "m")
    assert run_until(world, lambda: all(log == ["m"] for log in logs(stacks).values()))
    world.run_for(200.0)
    assert [len(ids) for _proposer, ids in decisions] == [1]
    assert stacks["p00"].abcast.in_flight() == 0


def test_a_joined_instance_is_retired_like_a_proposal_of_ones_own():
    world, stacks = ring_group()
    world.run_for(200.0)
    for tag in range(6):
        bcast(stacks, "p00", tag)
        world.run_for(40.0)
    assert run_until(world, lambda: all(len(log) == 6 for log in logs(stacks).values()))
    world.run_for(200.0)
    assert world.metrics.counters.get("abcast.instances_joined") > 0
    for stack in stacks.values():
        # Nothing pending, nothing assigned; what is still in flight is
        # the stale tail: the last id, proposed one index behind the
        # instance joined for it, which the next PROPOSE finds started.
        assert not stack.abcast._pending and not stack.abcast._assigned
        assert stack.abcast.in_flight() <= 1
    assert not buffered_proposes(stacks)
