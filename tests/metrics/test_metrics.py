"""Unit tests for counters, the latency recorder (intervals included) and
the metrics recorder."""

import math

import pytest

from repro.metrics.counters import Counters
from repro.metrics.latency import LatencyRecorder, LatencyStats, percentile
from repro.metrics.recorder import MetricsRecorder
from repro.net.message import MsgId
from repro.sim.world import World


def test_counters_basics():
    c = Counters()
    assert c.get("x") == 0
    c.inc("x")
    c.inc("x", 4)
    assert c["x"] == 5
    assert c.snapshot() == {"x": 5}
    c.clear()
    assert c.get("x") == 0


def test_counter_cells_agree_with_string_keyed_inc():
    # A cell is the counter inc(name, ...) bumps: increments through
    # either side land on the same counter, in any interleaving.
    c = Counters()
    cell = c.cell("net.sent")
    cell.n += 1
    c.inc("net.sent")
    cell.n += 3
    c.inc("net.sent", 2)
    assert c.get("net.sent") == 7
    assert c.snapshot() == {"net.sent": 7}
    # Two resolutions of the same name share the counter.
    c.cell("net.sent").n += 5
    assert c.get("net.sent") == 12


def test_counter_cells_survive_clear():
    c = Counters()
    cell = c.cell("x")
    cell.n += 4
    c.clear()
    assert c.get("x") == 0
    cell.n += 1  # the cell must still be the live counter
    assert c.get("x") == 1
    assert c.snapshot() == {"x": 1}


def test_a_cell_is_a_counter_from_its_first_increment_on():
    c = Counters()
    cell = c.cell("x")
    assert c.snapshot() == {} and "x" not in c.by_prefix("")
    cell.n += 0
    assert c.snapshot() == {"x": 0}
    c.clear()
    assert c.snapshot() == {}
    c.inc("y", 0)
    assert c.snapshot() == {"y": 0}


def test_counters_by_prefix_and_total():
    c = Counters()
    c.inc("net.sent", 10)
    c.inc("net.sent.fd", 4)
    c.inc("net.sent.abcast", 6)
    c.inc("net.recv", 9)
    assert c.by_prefix("net.sent.") == {"fd": 4, "abcast": 6}
    assert c.total("net.sent.") == 10
    assert c.by_prefix("nope.") == {}
    assert c.total("nope.") == 0


def test_latency_record_and_stats():
    rec = LatencyRecorder()
    for v in (1.0, 2.0, 3.0, 4.0):
        rec.record("t", v)
    stats = rec.stats("t")
    assert stats.count == 4
    assert stats.mean == 2.5
    assert stats.minimum == 1.0 and stats.maximum == 4.0
    assert rec.tags() == ["t"]
    assert "mean=2.50ms" in str(stats)


def test_latency_empty_stats_are_nan():
    stats = LatencyRecorder().stats("missing")
    assert stats.count == 0
    assert math.isnan(stats.mean)
    assert str(stats) == "n=0"
    assert stats == LatencyStats.empty()


def test_latency_begin_end_pairs():
    rec = LatencyRecorder()
    rec.begin("t", "k1", 10.0)
    assert rec.end("t", "k1", 14.0)
    assert rec.samples("t") == [4.0]
    # Ending an unknown interval records nothing.
    assert not rec.end("t", "k2", 20.0)
    assert rec.samples("t") == [4.0]
    # First end wins; the second is ignored.
    rec.begin("t", "k3", 0.0)
    assert rec.end("t", "k3", 1.0)
    assert not rec.end("t", "k3", 2.0)
    assert rec.samples("t") == [4.0, 1.0]


def test_percentile_linear_interpolation():
    samples = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert percentile(samples, 0.5) == 3.0
    # Interpolated: p95 of five samples is no longer just the maximum.
    assert percentile(samples, 0.95) == pytest.approx(4.8)
    assert percentile(samples, 0.25) == pytest.approx(2.0)
    assert math.isnan(percentile([], 0.5))


def test_percentile_edge_fractions():
    samples = [10.0, 20.0, 30.0]
    assert percentile(samples, 0.0) == 10.0
    assert percentile(samples, 1.0) == 30.0
    assert percentile([7.0], 0.5) == 7.0
    with pytest.raises(ValueError):
        percentile(samples, 1.5)
    with pytest.raises(ValueError):
        percentile(samples, -0.1)


def test_stats_include_p99():
    rec = LatencyRecorder()
    for v in range(1, 101):
        rec.record("t", float(v))
    stats = rec.stats("t")
    assert stats.p99 == pytest.approx(99.01)
    assert stats.p95 == pytest.approx(95.05)
    assert "p99=" in str(stats)


def test_stats_sorted_cache_invalidated_on_record():
    # Perf nit regression: stats() caches the sorted view, so a record
    # between two stats() calls must invalidate it — stale caches would
    # freeze the percentiles at the first read-out.
    rec = LatencyRecorder()
    rec.record("t", 5.0)
    first = rec.stats("t")
    assert first.count == 1 and first.maximum == 5.0
    # Cache hit: identical answer, and the cached view is actually there.
    assert rec.stats("t") == first
    assert "t" in rec._sorted_cache
    rec.record("t", 1.0)
    assert "t" not in rec._sorted_cache  # invalidated
    second = rec.stats("t")
    assert second.count == 2
    assert second.minimum == 1.0 and second.maximum == 5.0
    rec.record("t", 9.0)
    third = rec.stats("t")
    assert third.count == 3 and third.maximum == 9.0
    # Other tags keep their own cache entries independently.
    rec.record("u", 2.0)
    rec.stats("u")
    rec.record("t", 0.5)
    assert "u" in rec._sorted_cache and "t" not in rec._sorted_cache
    rec.clear()
    assert rec._sorted_cache == {}


def test_abandon_drops_interval_without_sample():
    rec = LatencyRecorder()
    rec.begin("t", "k1", 0.0)
    assert rec.open_intervals() == 1
    assert rec.abandon_if(lambda tag, key: (tag, key) == ("t", "k1")) == 1
    assert rec.abandon_if(lambda tag, key: (tag, key) == ("t", "k1")) == 0  # already gone
    assert rec.open_intervals() == 0
    assert not rec.end("t", "k1", 5.0)
    assert rec.samples("t") == []


def test_abandon_if_and_open_intervals_gauge():
    rec = LatencyRecorder()
    rec.begin("a", "k1", 0.0)
    rec.begin("a", "k2", 1.0)
    rec.begin("b", "k1", 2.0)
    assert rec.open_intervals() == 3
    assert rec.open_intervals("a") == 2
    dropped = rec.abandon_if(lambda tag, key: tag == "a")
    assert dropped == 2
    assert rec.open_intervals() == 1
    assert rec.open_intervals("a") == 0


def test_abandon_owner_matches_the_keys_the_program_makes():
    # Every latency key starts with a bare pid: a message id's sender
    # (abcast, gbcast, the sequencer, view synchrony), whatever its
    # incarnation, and Ensemble's, the client's and ``vs.blocked``'s
    # ``(pid, ...)`` tuples.
    rec = LatencyRecorder()
    rec.begin("abcast", MsgId("p00", 1), 0.0)
    rec.begin("gbcast", MsgId("p00", 2, 1), 0.0)
    rec.begin("abcast", ("p00", 1), 0.0)  # Ensemble
    rec.begin("request", ("p00", 7), 0.0)
    rec.begin("vs.blocked", ("p00", 3), 0.0)
    rec.begin("abcast", MsgId("p01", 3), 0.0)
    rec.begin("vs.blocked", ("p01", 3), 0.0)
    rec.begin("abcast", MsgId("p000", 4), 0.0)  # a longer pid
    rec.begin("other", "p00", 0.0)  # not a tuple
    assert rec.abandon_owner("p00") == 5
    assert rec.open_intervals() == 4
    assert rec.abandon_owner("p00") == 0


def test_crash_prunes_open_intervals():
    world = World(seed=1)
    (pid,) = world.spawn(1)
    process = world.process(pid)
    mid = process.msg_ids.next()
    world.metrics.latency.begin("abcast", mid, world.now)
    world.metrics.latency.begin("abcast", MsgId("p99", 1), world.now)
    process.crash()
    assert world.metrics.latency.open_intervals() == 1  # only p99's survives
    assert world.metrics.counters.get("latency.abandoned_on_crash") == 1
    assert world.metrics.latency.samples("abcast") == []


def test_interval_tracker_totals_and_counts():
    # An interval is a latency sample: a tag's total is the sum of its
    # samples, in the order the intervals closed, and its count their
    # number (how ``vs.blocked`` reads the time senders stayed blocked).
    rec = LatencyRecorder()
    rec.begin("b", "k1", 0.0)
    rec.begin("b", "k2", 5.0)
    assert rec.end("b", "k1", 10.0)
    assert sum(rec.samples("b")) == 10.0 and len(rec.samples("b")) == 1
    assert rec.open_intervals("b") == 1
    assert rec.end("b", "k2", 20.0)
    assert rec.samples("b") == [10.0, 15.0] and sum(rec.samples("b")) == 25.0
    assert rec.open_intervals() == 0


def test_interval_end_without_begin_is_noop():
    rec = LatencyRecorder()
    assert not rec.end("b", "k", 10.0)
    assert sum(rec.samples("b")) == 0.0
    assert rec.samples("b") == [] and "b" not in rec.tags()


def test_metrics_recorder_clear():
    m = MetricsRecorder()
    m.counters.inc("x")
    m.latency.record("t", 1.0)
    m.latency.begin("b", "k", 0.0)
    m.clear()
    assert m.counters.get("x") == 0
    assert m.latency.stats("t").count == 0
    assert m.latency.open_intervals() == 0
