"""Unit coverage for the bench shape guard (schema v6 rules).

The benchmark runner is exercised end to end by CI's ``--check`` run;
these tests pin the *rules* — the one-sided latency bound, the
``decision_path`` round-0 shape, the one-statement check that makes
every flag and its ``shape_detail`` sentence, and the actionable
shape-failure messages — against hand-built documents, so a rule
regression fails fast without re-running every scenario.
"""

import json
import math
import sys
from pathlib import Path

_BENCH = Path(__file__).resolve().parents[2] / "benchmarks"
if str(_BENCH) not in sys.path:  # the benches import each other by module name
    sys.path.insert(0, str(_BENCH))

from bench_stack_mechanisms import (  # noqa: E402
    DISSEMINATION_THROUGHPUT_FLOOR,
    RING_ORIGIN_BALANCE_BOUND,
    control_goes_direct,
    endstage_ordering_bytes,
    ring_decides_like_flood,
    run_dissemination,
)
from common import Result, claim, round0_dominates  # noqa: E402
from run_all import SCHEMA, check, compare  # noqa: E402


def test_schema_is_v6():
    assert SCHEMA == "bench-abgb/v6"


def test_latency_improvement_never_fails():
    baseline = {"latency_ms": {"p50": 42.9, "p95": 80.0}}
    current = {"latency_ms": {"p50": 23.5, "p95": 30.0}}
    assert compare(baseline, current, tolerance=0.25) == []


def test_latency_regression_over_10pct_fails():
    baseline = {"latency_ms": {"p50": 20.0}}
    current = {"latency_ms": {"p50": 22.1}}  # +10.5%
    problems = compare(baseline, current, tolerance=0.25)
    assert len(problems) == 1
    assert "latency regressed" in problems[0]
    # ...but within the one-sided bound it passes.
    assert compare(baseline, {"latency_ms": {"p50": 21.9}}, tolerance=0.25) == []


def test_critical_path_latency_means_are_one_sided_too():
    baseline = {"critical_path": {"mean_latency_ms": 30.0}}
    faster = {"critical_path": {"mean_latency_ms": 10.0}}
    slower = {"critical_path": {"mean_latency_ms": 40.0}}
    assert compare(baseline, faster, tolerance=0.25) == []
    assert compare(baseline, slower, tolerance=0.25) != []


def test_round0_dominates_rule():
    assert round0_dominates({"round0_fraction": 1.0})
    assert round0_dominates({"round0_fraction": 0.96})
    assert not round0_dominates({"round0_fraction": 0.5})
    # A run with no consensus at all trivially passes.
    assert round0_dominates({"round0_fraction": None})


def _empty_baseline(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({"scenarios": {}}))
    return path


def test_check_at_the_bound_holds_and_just_past_it_fails():
    assert claim("ring origin_over_mean", 2.0, "<=", 2.0)
    past = claim("ring origin_over_mean", 2.0001, "<=", 2.0)
    assert not past
    assert past.detail == "ring origin_over_mean 2.0001 <= 2"
    assert claim("kills", 1, ">=", 1) and not claim("kills", 0, ">=", 1)
    assert claim("p50 ms", 9.99, "<", 10.0) and not claim("p50 ms", 10.0, "<", 10.0)


def test_check_over_a_mapping_holds_only_if_every_entry_does():
    both = claim("open latency intervals", {"w1": 0, "w4": 0}, "==", 0)
    assert both and both.detail == "open latency intervals: w1 0 == 0; w4 0 == 0"
    one = claim("deposit ms", {"10%": 8.8, "30%": 10.4}, "<=", {"10%": 10.1, "30%": 10.3})
    assert not one
    assert "30% 10.4 <= 10.3" in one.detail


def test_a_missing_measurement_is_a_false_check_not_an_exception():
    for missing in (None, math.nan):
        verdict = claim("ring origin_over_mean", missing, "<=", RING_ORIGIN_BALANCE_BOUND)
        assert not verdict
        assert "ring origin_over_mean" in verdict.detail
        assert "missing" in verdict.detail
    assert not claim("ring msgs/s", 964.0, ">=", None)


def test_shape_failure_quotes_the_measured_detail(tmp_path):
    # A breached bound fails --check through its flag alone, and the
    # failure line quotes the check's sentence: the measured value and
    # the bound — a bare flag name is not actionable.
    result = Result()
    result.check("origin_bytes_balanced", "ring origin_over_mean",
                 RING_ORIGIN_BALANCE_BOUND + 0.5, "<=", RING_ORIGIN_BALANCE_BOUND)
    result.check("ring_throughput_holds", "ring msgs/s vs 0.9 × flood",
                 850.0, ">=", 1000.0 * DISSEMINATION_THROUGHPUT_FLOOR)
    result.check("other", "ring rb.nacks_sent", 0, "==", 0)
    doc = {"scenarios": {"dissemination_sweep": {
        "shape": result.shape, "shape_detail": result.shape_detail}}}
    problems = check(doc, _empty_baseline(tmp_path), tolerance=0.25)
    assert len(problems) == 2
    balance, throughput = problems
    assert "scenarios.dissemination_sweep.shape.origin_bytes_balanced" in balance
    assert "ring origin_over_mean 2.5 <= 2" in balance
    assert "scenarios.dissemination_sweep.shape.ring_throughput_holds" in throughput
    assert "850 >= 900" in throughput


def test_ordering_bytes_are_payload_blind():
    # The two runs behind the ``endstage_bytes_payload_blind`` flag: the
    # same 200-op all-conflicting schedule at 64 B and at 4 KiB puts the
    # same bytes on the wire for abcast + consensus, to the byte — an
    # ENDSTAGE names ids (ratio 6.1 when it carried its closure set).
    small, large = endstage_ordering_bytes(64), endstage_ordering_bytes(4096)
    assert small == large > 0
    assert large < 200 * 1024  # well under one 4 KiB body per op


def test_ordering_traffic_stays_off_the_overlay():
    # The runs behind ``control_goes_direct`` and ``ring_decides_like_flood``:
    # 100 bodies from p00 over a ring of five are forwarded by
    # the three middle members and by nobody else — a DECIDE walking the
    # ring doubled the count (600) — and the median propose-to-decide
    # delay is flood's, not flood's plus a ring hop (27.4 vs 16.8 ms).
    (flood, _), (ring, _) = run_dissemination("flood", 2_000.0), run_dissemination("ring", 2_000.0)
    assert ring["rb"]["forwarded"] == 300
    assert control_goes_direct(ring)
    assert not control_goes_direct({"rb": {"forwarded": 600}})
    assert ring_decides_like_flood(ring, flood)
    slow = {"decision_path": {"p50_decide_ms": 27.4}}
    assert not ring_decides_like_flood(slow, {"decision_path": {"p50_decide_ms": 16.8}})
