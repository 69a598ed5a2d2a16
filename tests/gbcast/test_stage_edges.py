"""Edge cases of the stage machinery in thrifty generic broadcast."""

from repro.gbcast.conflict import PASSIVE_REPLICATION, PRIMARY_CHANGE, UPDATE
from repro.gbcast.thrifty import ENDSTAGE_CLASS
from repro.net.message import AppMessage, MsgId

from tests.conftest import new_group, run_until


def test_endstage_from_excluded_sender_is_void():
    # The Section 3 safety rule: a stage closure adelivered after its
    # sender's exclusion must be ignored (see DESIGN.md §5).
    world, stacks, _ = new_group(conflict=PASSIVE_REPLICATION, seed=61)
    world.run_for(50.0)
    gb = stacks["p00"].gbcast
    stage_before = gb.stage
    # It names a body nobody holds, in its closure set and in its tail:
    # a void ENDSTAGE needs none of them (abcast does not wait for it).
    nobody = MsgId("ghost", 7)
    ghost = AppMessage(
        MsgId("ghost", 0), "ghost", (stage_before, (nobody,), (nobody,)), ENDSTAGE_CLASS
    )
    assert gb._bodies_needed(ghost) == []
    gb._on_adeliver(ghost)  # sender "ghost" is not a member
    assert gb.stage == stage_before
    assert len(world.trace.select(pid="p00", event="endstage_ignored")) == 1


def test_stale_endstage_for_closed_stage_is_ignored():
    world, stacks, _ = new_group(conflict=PASSIVE_REPLICATION, seed=62)
    world.run_for(50.0)
    # Drive one real closure.
    stacks["p00"].gbcast.gbcast_payload("u", UPDATE)
    stacks["p01"].gbcast.gbcast_payload("c", PRIMARY_CHANGE)
    assert run_until(world, lambda: stacks["p00"].gbcast.stage >= 1, timeout=30_000)
    gb = stacks["p00"].gbcast
    stage_now = gb.stage
    nobody = MsgId("p01", 999)
    stale = AppMessage(MsgId("p01!x", 99), "p01", (0, (), (nobody,)), ENDSTAGE_CLASS)
    assert gb._bodies_needed(stale) == []  # void: its tail is not asked for
    gb._on_adeliver(stale)  # stage 0 closed long ago
    assert gb.stage == stage_now
    assert not gb.undelivered_count()
    # The same payload for the open stage is waited for below a-delivery.
    live = AppMessage(MsgId("p01!x", 100), "p01", (stage_now, (), (nobody,)), ENDSTAGE_CLASS)
    assert gb._bodies_needed(live) == [nobody]


def test_acks_for_old_stages_are_discarded():
    world, stacks, _ = new_group(conflict=PASSIVE_REPLICATION, seed=63)
    world.run_for(50.0)
    gb = stacks["p00"].gbcast
    # Fabricate a pending message and an ack tagged with a stale stage.
    msg = AppMessage(MsgId("p01!f", 7), "p01", "zombie", UPDATE)
    gb._pending[msg.id] = msg
    gb._on_ack("p01", [(gb.stage - 1 if gb.stage else -1, msg.id)])
    assert msg.id not in gb._acks_received
    # A current-stage ack is counted.
    gb._on_ack("p01", [(gb.stage, msg.id)])
    assert gb._acks_received[msg.id] == {"p01"}


def test_nudge_is_noop_without_pending_traffic():
    world, stacks, _ = new_group(conflict=PASSIVE_REPLICATION, seed=64)
    world.run_for(50.0)
    before = world.metrics.counters.get("gbcast.endstages")
    stacks["p00"].gbcast.nudge()
    world.run_for(100.0)
    assert world.metrics.counters.get("gbcast.endstages") == before


def test_duplicate_chk_for_delivered_message_is_ignored():
    world, stacks, _ = new_group(conflict=PASSIVE_REPLICATION, seed=65)
    stacks["p00"].gbcast.gbcast_payload("once", UPDATE)
    assert run_until(
        world,
        lambda: all(
            len([m for m, _p in s.gbcast.delivered_log if m.msg_class == UPDATE]) == 1
            for s in stacks.values()
        ),
        timeout=10_000,
    )
    gb = stacks["p01"].gbcast
    delivered_msg = next(m for m, _p in gb.delivered_log if m.msg_class == UPDATE)
    gb._on_chk("p00", delivered_msg, MsgId("p00!rb", 999))
    world.run_for(200.0)
    assert len([m for m, _p in gb.delivered_log if m.msg_class == UPDATE]) == 1


def test_stage_advances_monotonically_under_churned_conflicts():
    world, stacks, _ = new_group(conflict=PASSIVE_REPLICATION, seed=66)
    for i in range(6):
        stacks["p00"].gbcast.gbcast_payload(f"c{i}", PRIMARY_CHANGE)
    assert run_until(
        world,
        lambda: all(
            len([m for m, _p in s.gbcast.delivered_log if m.msg_class == PRIMARY_CHANGE]) == 6
            for s in stacks.values()
        ),
        timeout=60_000,
    )
    stages = {s.gbcast.stage for s in stacks.values()}
    assert all(st >= 1 for st in stages)
    # All processes ended on the same stage (they all saw the same closures).
    assert len(stages) == 1


def test_rejoiner_acks_the_pending_set_its_snapshot_hands_over():
    # m1 is broadcast while p00 is down and is still waiting for p00's
    # ack when p00's next incarnation is re-admitted: it reaches p00~1
    # only inside the sponsor's snapshot (the rbcast fence dedups the
    # re-sent packet), so nothing r-delivers it there.  If the rejoiner
    # does not ack what it inherited, m1 waits out the fast-path timeout
    # everywhere while m2 — same sender, acked on arrival — is delivered
    # first: sender FIFO broken at every member (found by the schedule
    # explorer as `fifo-per-incarnation` at a rejoiner).
    from repro.core.new_stack import build_new_group, enable_recovery
    from repro.gbcast.conflict import RBCAST_CLASS
    from repro.sim.world import World

    world = World(seed=64)
    stacks = build_new_group(world, 3)
    enable_recovery(world, stacks)
    world.start()
    world.run_for(100.0)
    world.crash("p00")
    world.run_for(1.0)
    stacks["p02"].gbcast.gbcast_payload("m1", RBCAST_CLASS)
    world.run_for(9.0)  # well inside the 60 ms suspicion timeout
    world.recover("p00")
    world.run_for(20.0)
    stacks["p02"].gbcast.gbcast_payload("m2", RBCAST_CLASS)
    delivered = lambda pid: [
        (m.payload, path) for m, path in stacks[pid].gbcast.delivered_log
    ]
    assert run_until(world, lambda: all(len(delivered(p)) == 2 for p in stacks))
    for pid in stacks:
        assert delivered(pid) == [("m1", "fast"), ("m2", "fast")], pid
    assert world.metrics.counters.get("gbcast.endstages") == 0
