"""Id-only ordering: dissemination/ordering separation and PULL/repair.

Consensus proposals carry ``(proposer, (MsgId, ...))`` vectors, never
bodies — so a process can learn a decision *before* rbcast hands it the
referenced bodies (decide-before-dissemination).  These tests pin down
the repair protocol that closes that window: proposer-first PULL, retry
rotation past a crashed proposer, the end-to-end blocked-link race, the
recovered-incarnation/post-snapshot laggard path, and the determinism
contract (same seed → byte-identical counters, logs and clock, with the
bandwidth term off).
"""

from __future__ import annotations

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


def test_pull_repair_asks_proposer_first():
    # p02 learns a decision for a body only the proposer holds: one PULL
    # to the proposer must repair it, without waiting for rbcast.
    world, stacks = abcast_group()
    body = stacks["p00"].process.msg_ids.message("repair-me")
    stacks["p00"].abcast._pending[body.id] = body
    stacks["p02"].abcast._on_decide(("abc", 0, 0), ("p00", (body.id,)))
    assert run_until(
        world,
        lambda: [m.payload for m in stacks["p02"].abcast.delivered_log] == ["repair-me"],
        timeout=5_000,
    )
    counters = world.metrics.counters
    assert counters.get("abcast.decide_before_dissemination") == 1
    assert counters.get("abcast.pulls_sent") == 1  # proposer answered first try
    assert counters.get("abcast.pull_served") == 1
    assert counters.get("abcast.repaired") == 1
    assert counters.get("abcast.pull_misses") == 0


def test_pull_rotation_falls_through_crashed_proposer():
    # The proposer crashed after its decision spread; the retry timer
    # must rotate to the remaining members, any of which can serve.
    world, stacks = abcast_group()
    body = stacks["p00"].process.msg_ids.message("survivor-serves")
    stacks["p01"].abcast._pending[body.id] = body
    world.run_for(5.0)
    world.crash("p00")
    stacks["p02"].abcast._on_decide(("abc", 0, 0), ("p00", (body.id,)))
    assert run_until(
        world,
        lambda: [m.payload for m in stacks["p02"].abcast.delivered_log]
        == ["survivor-serves"],
        timeout=5_000,
    )
    counters = world.metrics.counters
    assert counters.get("abcast.pull_retries") >= 1
    assert counters.get("abcast.pulls_sent") >= 2  # dead proposer, then rotation
    assert counters.get("abcast.repaired") == 1


def test_decide_before_dissemination_over_blocked_link():
    # End-to-end: p01's body cannot reach p02 (directed link drops
    # everything, lazy relay means nobody re-forwards it), but the
    # coordinator's DECIDE rbcast arrives fine.  p02 must block delivery
    # on the missing id and repair via PULL — total order intact.
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
    # The body reached p02 by PUSH repair (rbcast never could).
    assert counters.get("abcast.repaired") >= 1
    orders = list(logs(stacks).values())
    assert all(order == orders[0] for order in orders)


def test_recovered_laggard_pulls_bodies_decided_past_its_snapshot():
    # The recovered-incarnation hard case: a fresh stack resumes from a
    # state snapshot cut at instance k, then learns the decision for
    # instance k whose body was disseminated while it was down — the
    # rbcast snapshot fences out late copies of pre-join packets, so the
    # only ways to the body are the donor's pending set (empty here: the
    # donor applied the batch) or the PULL path.
    world, stacks = abcast_group()
    for i in range(3):
        bcast(stacks, "p00", f"m{i}")
    assert run_until(world, lambda: all(len(log) == 3 for log in logs(stacks).values()))
    cut = stacks["p02"].abcast.snapshot()  # position 3, nothing pending
    late = stacks["p00"].process.msg_ids.message("decided-while-down")
    stacks["p00"].abcast._pending[late.id] = late
    laggard = stacks["p02"].abcast
    laggard.install_snapshot(cut)  # fresh incarnation resumes at the cut
    laggard._on_decide(("abc", 0, laggard.next_instance), ("p00", (late.id,)))
    laggard.resume_proposing()
    assert run_until(
        world,
        lambda: any(m.payload == "decided-while-down" for m in laggard.delivered_log),
        timeout=5_000,
    )
    counters = world.metrics.counters
    assert counters.get("abcast.pulls_sent") >= 1
    assert counters.get("abcast.repaired") == 1
    # Nothing below the snapshot position was redelivered.
    assert [m.payload for m in laggard.delivered_log].count("m0") == 1


def test_late_rbcast_delivery_cancels_the_fetch():
    # If ordinary dissemination wins the race after a PULL started, the
    # fetch must dissolve (no repair counted, retry timer dies).
    world, stacks = abcast_group()
    body = stacks["p00"].process.msg_ids.message("raced")
    stacks["p02"].abcast._on_decide(("abc", 0, 0), ("p00", (body.id,)))
    world.run_for(10.0)  # PULL sent; every member misses (nobody has it)
    assert world.metrics.counters.get("abcast.pulls_sent") >= 1
    assert stacks["p02"].abcast.waiting_on() == {body.id}
    # Now the body arrives the ordinary way.
    stacks["p00"].abcast.abcast(body)
    assert run_until(
        world,
        lambda: any(m.payload == "raced" for m in stacks["p02"].abcast.delivered_log),
        timeout=5_000,
    )
    assert stacks["p02"].abcast.waiting_on() == set()
    assert world.metrics.counters.get("abcast.late_dissemination") >= 1


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
