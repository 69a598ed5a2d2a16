"""Unit tests for the discrete-event scheduler."""

import pytest

from repro.sim.scheduler import Scheduler


def test_events_run_in_time_order():
    sched = Scheduler()
    seen = []
    sched.schedule(5.0, seen.append, "b")
    sched.schedule(1.0, seen.append, "a")
    sched.schedule(9.0, seen.append, "c")
    sched.run()
    assert seen == ["a", "b", "c"]
    assert sched.now == 9.0


def test_ties_break_by_insertion_order():
    sched = Scheduler()
    seen = []
    for label in ("first", "second", "third"):
        sched.schedule(2.0, seen.append, label)
    sched.run()
    assert seen == ["first", "second", "third"]


def test_negative_delay_rejected():
    sched = Scheduler()
    with pytest.raises(ValueError):
        sched.schedule(-1.0, lambda: None)


def test_cannot_schedule_in_the_past():
    sched = Scheduler()
    sched.schedule(5.0, lambda: None)
    sched.run()
    with pytest.raises(ValueError):
        sched.at(1.0, lambda: None)


def test_cancelled_timer_does_not_fire():
    sched = Scheduler()
    seen = []
    timer = sched.schedule(1.0, seen.append, "x")
    timer.cancel()
    sched.run()
    assert seen == []
    assert not timer.active


def test_run_until_stops_at_boundary():
    sched = Scheduler()
    seen = []
    sched.schedule(1.0, seen.append, 1)
    sched.schedule(10.0, seen.append, 10)
    sched.run(until=5.0)
    assert seen == [1]
    assert sched.now == 5.0
    sched.run()
    assert seen == [1, 10]


def test_run_for_advances_relative_time():
    sched = Scheduler()
    sched.schedule(3.0, lambda: None)
    sched.run_for(2.0)
    assert sched.now == 2.0
    sched.run_for(2.0)
    assert sched.now == 4.0


def test_events_scheduled_during_run_are_processed():
    sched = Scheduler()
    seen = []

    def chain(n):
        seen.append(n)
        if n < 3:
            sched.schedule(1.0, chain, n + 1)

    sched.schedule(0.0, chain, 0)
    sched.run()
    assert seen == [0, 1, 2, 3]


def test_max_events_bounds_work():
    sched = Scheduler()
    seen = []
    for i in range(10):
        sched.schedule(float(i), seen.append, i)
    sched.run(max_events=4)
    assert seen == [0, 1, 2, 3]


def test_timer_fires_exactly_once():
    sched = Scheduler()
    count = []
    timer = sched.schedule(1.0, lambda: count.append(1))
    sched.run()
    assert timer.fired and not timer.active
    sched.run()
    assert count == [1]


def test_posted_events_interleave_with_timers_deterministically():
    # post() packs the event as a tuple (no Timer handle); ties with
    # regular timers must still break by insertion order.
    sched = Scheduler()
    seen = []
    sched.schedule(2.0, seen.append, "timer-a")
    sched.post(2.0, seen.append, "posted-b")
    sched.schedule(2.0, seen.append, "timer-c")
    sched.post(1.0, seen.append, "posted-first")
    sched.run()
    assert seen == ["posted-first", "timer-a", "posted-b", "timer-c"]
    assert sched.now == 2.0


def test_posted_event_rejects_negative_delay():
    sched = Scheduler()
    with pytest.raises(ValueError):
        sched.post(-0.5, lambda: None)


def test_posted_events_advance_time_and_counts():
    sched = Scheduler()
    seen = []
    sched.post(3.0, lambda: seen.append(sched.now))
    assert sched.pending() == 1
    assert sched.run(max_events=1) == 1
    assert seen == [3.0]
    assert sched.events_processed == 1
    assert sched.run(max_events=1) == 0


def test_posted_events_respect_until_boundary():
    sched = Scheduler()
    seen = []
    sched.post(1.0, seen.append, 1)
    sched.post(10.0, seen.append, 10)
    sched.run(until=5.0)
    assert seen == [1]
    assert sched.now == 5.0


def test_global_event_total_accumulates_across_instances():
    before = Scheduler.total_events_processed
    for _ in range(2):
        sched = Scheduler()
        sched.schedule(1.0, lambda: None)
        sched.post(2.0, lambda: None)
        sched.run()
    assert Scheduler.total_events_processed == before + 4


def test_zero_delay_runs_at_current_time():
    sched = Scheduler()
    times = []
    sched.schedule(5.0, lambda: sched.schedule(0.0, lambda: times.append(sched.now)))
    sched.run()
    assert times == [5.0]


def test_compaction_evicts_cancelled_timers():
    # Regression: cancelled long-delay timers (suppressed FD heartbeats)
    # used to linger in the heap until their deadline popped.  Once they
    # dominate the queue a compaction rebuilds the heap without them.
    sched = Scheduler()
    timers = [sched.schedule(1_000.0 + i, lambda: None) for i in range(200)]
    assert sched.pending() == 200
    for t in timers[:150]:
        t.cancel()
    # The 100th cancel crossed both thresholds (>= 64 and >= half the
    # queue) and compacted 100 entries away; the remaining 50 cancels sit
    # below the floor and linger until the next compaction or their pop.
    assert sched.compactions >= 1
    assert sched.pending() == 100
    assert sched._cancelled_pending == 50


def test_no_compaction_below_floor():
    sched = Scheduler()
    timers = [sched.schedule(10.0 + i, lambda: None) for i in range(20)]
    for t in timers:  # 100% cancelled, but under COMPACT_MIN_CANCELLED
        t.cancel()
    assert sched.compactions == 0
    sched.run()
    assert sched.pending() == 0


def test_compaction_preserves_tick_order():
    # Fingerprint check: the exact same workload, with compaction forced
    # on one scheduler and disabled on the other, fires the surviving
    # timers in the identical order — (when, tick) keys with unique
    # ticks make heapify-after-filter order-equivalent to lazy popping.
    def workload(sched):
        seen = []
        keep = []
        doomed = []
        for i in range(200):
            target = doomed if i % 3 else keep
            # Deliberate same-time collisions so ties exercise tick order.
            target.append(sched.schedule(float(i % 7), seen.append, i))
        for t in doomed:
            t.cancel()
        sched.run()
        return seen

    compacting = Scheduler()
    lazy = Scheduler()
    lazy.COMPACT_MIN_CANCELLED = 10**9  # never compact
    order_a = workload(compacting)
    order_b = workload(lazy)
    assert compacting.compactions >= 1
    assert lazy.compactions == 0
    assert order_a == order_b


def test_double_cancel_counts_once():
    sched = Scheduler()
    t = sched.schedule(5.0, lambda: None)
    t.cancel()
    t.cancel()
    assert sched._cancelled_pending == 1


def test_cancel_after_fire_is_noop():
    sched = Scheduler()
    t = sched.schedule(1.0, lambda: None)
    sched.run()
    t.cancel()
    assert sched._cancelled_pending == 0
