"""ENDSTAGE is an ordering record of ids: ``(stage, S, T)``.

``S`` is the closer's acked set, the *tail* ``T`` everything else it
holds pending when it closes, so one consensus instance serves a whole
conflict burst (DESIGN.md §5).  Bodies stay with rbcast; a member that
a-delivers an ENDSTAGE before a body it names waits *below a-delivery*,
in abcast's blocked-head path.
"""

from repro.abcast.consensus_based import REPAIR_INTERVAL
from repro.core.new_stack import StackConfig, build_new_group
from repro.gbcast.conflict import ABCAST_CLASS
from repro.gbcast.thrifty import ENDSTAGE_CLASS
from repro.monitoring.component import MonitoringPolicy
from repro.net.message import AppMessage, MsgId
from repro.net.topology import LinkModel
from repro.sim.world import World, add_joiner

from tests.conftest import run_until

#: Neither suspects nor excludes within a test's span.
PATIENT = dict(
    suspicion_timeout=10_000.0, monitoring=MonitoringPolicy(exclusion_timeout=60_000.0)
)
WALL = LinkModel(1.0, 1.0, drop_prob=1.0)


def group(count=3, seed=1, link=None, **cfg):
    world = World(seed=seed, default_link=link or LinkModel(5.0, 0.0))
    stacks = build_new_group(world, count, config=StackConfig(**cfg))
    world.start()
    return world, stacks


def log(stack):
    return [(m.payload, path) for m, path in stack.gbcast.delivered_log]


def order(stack):
    return [m.id for m, _path in stack.gbcast.delivered_log]


def endstages(stack):
    return [m for m in stack.abcast.delivered_log if m.msg_class == ENDSTAGE_CLASS]


def gb(stacks, pid, payload, msg_class=ABCAST_CLASS):
    return stacks[pid].gbcast.gbcast_payload(payload, msg_class)


def assert_sender_fifo(stack):
    per_sender = {}
    for mid in order(stack):
        per_sender.setdefault(mid.sender, []).append(mid)
    assert all(ids == sorted(ids) for ids in per_sender.values())


def test_the_endstage_an_op_trips_orders_that_op_too():
    # Two conflicting ops at once, jitter-free links: the closer acks
    # one, the other trips the conflict and rides the same ENDSTAGE as
    # its tail; the next op finds a clean stage and takes the fast path.
    world, stacks = group()
    world.run_for(50.0)
    gb(stacks, "p01", "a")
    gb(stacks, "p02", "b")
    assert run_until(world, lambda: all(len(log(s)) == 2 for s in stacks.values()))
    counters = world.metrics.counters
    assert counters.get("gbcast.endstages") == 1
    assert counters.get("gbcast.tail_ordered") == 1
    assert len({tuple(log(s)) for s in stacks.values()}) == 1
    assert {path for _payload, path in log(stacks["p00"])} == {"closure"}
    proposals = counters.get("consensus.proposals")
    world.run_for(50.0)
    gb(stacks, "p01", "c")
    assert run_until(world, lambda: all(len(log(s)) == 3 for s in stacks.values()))
    assert all(log(s)[-1] == ("c", "fast") for s in stacks.values())
    assert counters.get("consensus.proposals") == proposals
    assert counters.get("gbcast.endstages") == 1


def test_a_backlog_of_any_length_is_ordered_by_the_next_instance():
    # 60 pairwise-conflicting ops in one instant: a stage per op would
    # take 59 consensus decisions one after the other.
    world, stacks = group(link=LinkModel(3.0, 8.0), seed=2)
    world.run_for(50.0)
    for i in range(60):
        gb(stacks, f"p0{i % 3}", ("op", i))
    assert run_until(world, lambda: all(len(log(s)) == 60 for s in stacks.values()))
    world.run_for(300.0)
    assert world.metrics.counters.get("consensus.decisions_broadcast") <= 4
    assert len({tuple(order(s)) for s in stacks.values()}) == 1
    for stack in stacks.values():
        assert_sender_fifo(stack)
        for message in endstages(stack):
            _stage, closure, tail = message.payload
            assert not set(closure) & set(tail)
            assert all(type(mid) is MsgId for mid in closure + tail)
    assert sum(len(m.payload[2]) for m in endstages(stacks["p00"])) >= 50


def test_a_named_body_is_waited_for_below_adelivery():
    # p01's CHK cannot reach p02; the ENDSTAGE that names it, and a
    # remove ordered behind it, are decided meanwhile.  p02 must apply
    # neither — a closure applied late by gbcast alone would deliver in
    # a later view than its peers — until an rb.nack repair brings the
    # body; a JOIN ordered meanwhile is cut at the sponsor's a-delivery
    # position, closure included.
    world, stacks = group(count=4, **PATIENT)
    world.run_for(50.0)
    victim = stacks["p02"]
    real_request, held = victim.rbcast.request_repair, []
    victim.rbcast.request_repair = held.append  # hold the repair back
    world.transport.set_link("p01", "p02", WALL)
    first = gb(stacks, "p00", "first")
    named = gb(stacks, "p01", "named")
    peers = [stacks[p] for p in ("p00", "p01", "p03")]
    assert run_until(world, lambda: all(len(log(s)) == 2 for s in peers))
    assert order(stacks["p00"]) == [first.id, named.id]
    stacks["p00"].membership.remove("p03")
    assert run_until(world, lambda: len(stacks["p00"].view().members) == 3)
    joiner = add_joiner(world, stacks)
    joiner.membership.request_join("p00")
    assert run_until(world, lambda: joiner.view() is not None, timeout=2_000)
    sponsor = stacks["p00"]
    assert joiner.gbcast.stage == sponsor.gbcast.stage == 1
    assert (joiner.abcast.epoch, joiner.abcast.next_instance) == (
        sponsor.abcast.epoch, sponsor.abcast.next_instance,
    )
    # Meanwhile p02 holds the decisions and has applied none of them.
    (namer,) = [m.id for m in endstages(sponsor)]
    assert victim.abcast.waiting_on() == {named.id: namer}
    assert held and not endstages(victim) and victim.gbcast.stage == 0
    assert [m.payload for m, _ in victim.gbcast.delivered_log] == []
    assert len(victim.view().members) == 4
    victim.rbcast.request_repair = real_request
    assert run_until(world, lambda: len(log(victim)) == 2, timeout=4 * REPAIR_INTERVAL)
    assert order(victim) == order(sponsor)
    assert run_until(world, lambda: victim.view() == sponsor.view())
    counters = world.metrics.counters
    assert counters.get("rb.nacks_sent") > 0
    assert counters.get("abcast.repaired") == 1
    assert not victim.abcast.waiting_on()


def test_remove_before_its_endstage_in_one_batch_voids_it_unasked():
    # p02's ENDSTAGE names a body nobody holds and shares a batch with
    # remove(p02), which sorts first: asked at its turn, the ENDSTAGE is
    # void already and the group moves on.  (Asked per batch, before the
    # remove is applied, it would wait for that body for ever.)
    world, stacks = group(**PATIENT)
    world.run_for(50.0)
    proposed = []
    real_propose = stacks["p00"].consensus.propose
    stacks["p00"].consensus.propose = lambda key, value, members: (
        proposed.append(value[1]), real_propose(key, value, members),
    )
    p00, p02 = stacks["p00"], stacks["p02"]
    # An instance in flight at the coordinator: what arrives meanwhile
    # is proposed together, in one batch, when it is applied.
    p00.abcast.abcast(p00.process.msg_ids.message("busy"))
    stacks["p01"].membership.remove("p02")
    ghost = AppMessage(
        p02.process.msg_ids.next(), "p02", (0, (), (MsgId("p02", 999),)), ENDSTAGE_CLASS
    )
    p02.abcast.abcast(ghost)
    survivors = [stacks["p00"], stacks["p01"]]
    assert run_until(
        world, lambda: all(ghost in s.abcast.delivered_log for s in survivors), timeout=2_000
    )
    assert any(len(batch) == 2 and ghost.id in batch for batch in proposed)
    for stack in survivors:
        assert stack.view().members == ("p00", "p01")
        assert not stack.abcast.waiting_on()
        assert stack.gbcast.stage == 0
    assert world.metrics.counters.get("abcast.decide_before_dissemination") == 0
    gb(stacks, "p01", "after")
    assert run_until(world, lambda: all(log(s) == [("after", "fast")] for s in survivors))

