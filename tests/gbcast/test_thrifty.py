"""Unit tests for thrifty generic broadcast."""

from repro.gbcast.conflict import (
    PASSIVE_REPLICATION,
    PRIMARY_CHANGE,
    UPDATE,
    ConflictRelation,
    bank_relation,
)
from repro.net.topology import LinkModel

from tests.conftest import new_group, run_until


def gb_logs(stacks, msg_class=None):
    out = {}
    for pid, stack in stacks.items():
        entries = [
            (m.payload, path)
            for m, path in stack.gbcast.delivered_log
            if not m.msg_class.startswith("_")
            and (msg_class is None or m.msg_class == msg_class)
        ]
        out[pid] = entries
    return out


def payload_orders(stacks, classes):
    return {
        pid: [
            m.payload
            for m, _ in stack.gbcast.delivered_log
            if m.msg_class in classes
        ]
        for pid, stack in stacks.items()
    }


def test_non_conflicting_messages_use_fast_path_only():
    world, stacks, _ = new_group(conflict=PASSIVE_REPLICATION, seed=1)
    for i in range(10):
        stacks["p00"].gbcast.gbcast_payload(f"u{i}", UPDATE)
    assert run_until(
        world,
        lambda: all(len(v) == 10 for v in gb_logs(stacks).values()),
        timeout=10_000,
    )
    counters = world.metrics.counters
    assert counters.get("gbcast.delivered.fast") == 30
    assert counters.get("gbcast.endstages") == 0
    # The thrifty property: atomic broadcast (hence consensus) never ran.
    assert counters.get("consensus.proposals") == 0


def test_conflicting_messages_are_totally_ordered():
    world, stacks, _ = new_group(conflict=PASSIVE_REPLICATION, seed=2)
    for i in range(5):
        stacks["p00"].gbcast.gbcast_payload(f"u{i}", UPDATE)
        stacks["p01"].gbcast.gbcast_payload(f"c{i}", PRIMARY_CHANGE)
    assert run_until(
        world,
        lambda: all(len(v) == 10 for v in gb_logs(stacks).values()),
        timeout=20_000,
    )
    # Every pair (update, primary-change) and (pc, pc) must be ordered
    # identically everywhere; updates among themselves may differ.
    orders = payload_orders(stacks, {UPDATE, PRIMARY_CHANGE})
    reference = orders["p00"]

    def relative_order(seq, a, b):
        return seq.index(a) < seq.index(b)

    changes = [p for p in reference if p.startswith("c")]
    updates = [p for p in reference if p.startswith("u")]
    for order in orders.values():
        for i, c1 in enumerate(changes):
            for c2 in changes[i + 1 :]:
                assert relative_order(order, c1, c2) == relative_order(reference, c1, c2)
            for u in updates:
                assert relative_order(order, u, c1) == relative_order(reference, u, c1)
    assert world.metrics.counters.get("gbcast.endstages") > 0


def test_all_conflicting_equals_atomic_broadcast_semantics():
    world, stacks, _ = new_group(conflict=ConflictRelation.always(), seed=3)
    for i in range(6):
        stacks["p00"].gbcast.gbcast_payload(f"a{i}", "x")
        stacks["p01"].gbcast.gbcast_payload(f"b{i}", "y")
    assert run_until(
        world,
        lambda: all(len(v) == 12 for v in gb_logs(stacks).values()),
        timeout=20_000,
    )
    orders = payload_orders(stacks, {"x", "y"})
    values = list(orders.values())
    assert all(order == values[0] for order in values)


def test_never_conflicting_equals_reliable_broadcast():
    world, stacks, _ = new_group(conflict=ConflictRelation.never(), seed=4)
    for i in range(10):
        stacks["p00"].gbcast.gbcast_payload(f"m{i}", "anything")
    assert run_until(
        world,
        lambda: all(len(v) == 10 for v in gb_logs(stacks).values()),
        timeout=10_000,
    )
    assert world.metrics.counters.get("consensus.proposals") == 0


def test_no_duplicate_deliveries_even_with_closures():
    world, stacks, _ = new_group(conflict=bank_relation(), seed=5)
    for i in range(6):
        stacks["p00"].gbcast.gbcast_payload(("dep", i), "deposit")
        stacks["p01"].gbcast.gbcast_payload(("wd", i), "withdrawal")
    assert run_until(
        world,
        lambda: all(len(v) == 12 for v in gb_logs(stacks).values()),
        timeout=30_000,
    )
    world.run_for(1_000.0)
    for entries in gb_logs(stacks).values():
        payloads = [p for p, _ in entries]
        assert len(payloads) == len(set(payloads)) == 12


def test_fast_path_blocked_by_crash_falls_back_to_closure():
    # A crashed member never acks; the timeout/nudge path must close the
    # stage through abcast so the survivors still deliver.
    world, stacks, _ = new_group(conflict=PASSIVE_REPLICATION, seed=6)
    world.run_for(50.0)
    world.crash("p02")
    stacks["p00"].gbcast.gbcast_payload("u-after-crash", UPDATE)
    survivors = ("p00", "p01")
    assert run_until(
        world,
        lambda: all(len(gb_logs(stacks)[pid]) == 1 for pid in survivors),
        timeout=30_000,
    )
    assert world.metrics.counters.get("gbcast.endstages") >= 1


def test_closure_deliveries_recorded_with_path():
    world, stacks, _ = new_group(conflict=PASSIVE_REPLICATION, seed=7)
    stacks["p00"].gbcast.gbcast_payload("u", UPDATE)
    stacks["p01"].gbcast.gbcast_payload("c", PRIMARY_CHANGE)
    assert run_until(
        world,
        lambda: all(len(v) == 2 for v in gb_logs(stacks).values()),
        timeout=20_000,
    )
    paths = {path for entries in gb_logs(stacks).values() for _, path in entries}
    assert paths <= {"fast", "closure"}


def test_lossy_network_still_converges():
    world, stacks, _ = new_group(
        conflict=PASSIVE_REPLICATION, seed=8
    )
    world.transport.default_link = LinkModel(1.0, 3.0, drop_prob=0.1)
    for i in range(4):
        stacks["p00"].gbcast.gbcast_payload(f"u{i}", UPDATE)
        stacks["p02"].gbcast.gbcast_payload(f"c{i}", PRIMARY_CHANGE)
    assert run_until(
        world,
        lambda: all(len(v) == 8 for v in gb_logs(stacks).values()),
        timeout=60_000,
    )


def gbcast_timers(stacks):
    return [s.gbcast._timeout for s in stacks.values() if s.gbcast._timeout is not None]


def test_idle_group_stops_ticking():
    # The fast-path timeout is a deadline on what is outstanding, not a
    # tick: a timer is pending while an ack waits for its delivery, and
    # none is once nothing is outstanding — no idle process ever wakes.
    world, stacks, _ = new_group(conflict=PASSIVE_REPLICATION, seed=9)
    for i in range(3):
        stacks["p00"].gbcast.gbcast_payload(f"u{i}", UPDATE)
    assert run_until(world, lambda: bool(gbcast_timers(stacks)), timeout=100, step=0.5)
    assert all(timer.active for timer in gbcast_timers(stacks))
    assert run_until(
        world,
        lambda: all(len(v) == 3 for v in gb_logs(stacks).values()),
        timeout=10_000,
    )
    assert gbcast_timers(stacks) == []  # cancelled by the last delivery
    world.run_for(20_000.0)  # a long idle stretch: 80 timeouts
    assert gbcast_timers(stacks) == []
    assert world.metrics.counters.get("gbcast.endstages") == 0


def test_tick_rearms_after_idle_period():
    # The flip side of not ticking while idle: traffic after a long idle
    # stretch must arm the timeout again and still deliver (and still
    # close stages on a crashed member's missing acks).
    world, stacks, _ = new_group(conflict=PASSIVE_REPLICATION, seed=10)
    stacks["p00"].gbcast.gbcast_payload("warmup", UPDATE)
    assert run_until(
        world, lambda: all(len(v) == 1 for v in gb_logs(stacks).values()), timeout=10_000
    )
    world.run_for(30_000.0)  # idle: no timer is pending through this
    world.crash("p02")
    stacks["p00"].gbcast.gbcast_payload("after-idle", UPDATE)
    survivors = ("p00", "p01")
    assert run_until(
        world,
        lambda: all(len(gb_logs(stacks)[pid]) == 2 for pid in survivors),
        timeout=30_000,
    )
    assert world.metrics.counters.get("gbcast.endstages") >= 1


def test_ack_piggybacking_batches_acks():
    # Batching has one owner, the channel: the acks a process generates
    # within one millisecond (here: a coalesced datagram delivering a
    # burst of broadcasts at once) are one segment each and ride one
    # datagram per member instead of one datagram per ack.
    burst = 8
    world, stacks, _ = new_group(conflict=PASSIVE_REPLICATION, seed=11)
    for i in range(burst):
        stacks["p00"].gbcast.gbcast_payload(f"u{i}", UPDATE)
    assert run_until(
        world,
        lambda: all(len(v) == burst for v in gb_logs(stacks).values()),
        timeout=20_000,
    )
    counters = world.metrics.counters
    assert counters.get("rc.sent.port.gb.ack") == burst * 3 * 3
    assert counters.get("rc.segments_coalesced") > 0
    assert counters.get("net.sent.port.rc") < burst * 3
