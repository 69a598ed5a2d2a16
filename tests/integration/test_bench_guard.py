"""Unit coverage for the bench shape guard (schema v6 rules).

The benchmark runner is exercised end to end by CI's ``--check`` run;
these tests pin the *rules* — the one-sided latency bound, the
``decision_path`` round-0 shape, the actionable shape-failure messages
and the dissemination hard bounds — against hand-built documents, so a
rule regression fails fast without re-running every scenario.
"""

import json
import sys
from pathlib import Path

_BENCH = Path(__file__).resolve().parents[2] / "benchmarks"
if str(_BENCH) not in sys.path:  # run_all expects its own dir importable
    sys.path.insert(0, str(_BENCH))

from run_all import (  # noqa: E402
    DISSEMINATION_THROUGHPUT_FLOOR,
    RING_ORIGIN_BALANCE_BOUND,
    SCHEMA,
    check,
    compare,
    control_goes_direct,
    endstage_ordering_bytes,
    ring_decides_like_flood,
    round0_dominates,
    run_dissemination,
)


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


def test_shape_failure_quotes_the_measured_detail(tmp_path):
    # A false shape flag must surface the scenario's shape_detail string
    # (measured value + bound) — a bare flag name is not actionable.
    doc = _sweep_doc(origin_over_mean=1.3, tput_ring=960.0)
    doc["scenarios"]["dissemination_sweep"]["shape"] = {
        "origin_bytes_balanced": False,
        "other": True,
    }
    doc["scenarios"]["dissemination_sweep"]["shape_detail"] = {
        "origin_bytes_balanced": "ring origin_over_mean 2.7 <= bound 2.0"
    }
    problems = check(doc, _empty_baseline(tmp_path), tolerance=0.25)
    assert len(problems) == 1
    assert "scenarios.dissemination_sweep.shape.origin_bytes_balanced" in problems[0]
    assert "ring origin_over_mean 2.7 <= bound 2.0" in problems[0]


def _sweep_doc(origin_over_mean, tput_ring, tput_flood=1000.0):
    return {
        "scenarios": {
            "dissemination_sweep": {
                "shape": {},
                "metrics": {
                    "ring": {"node_bytes": {"origin_over_mean": origin_over_mean}},
                    "flood_nobw": {"throughput_msgs_per_s": tput_flood},
                    "ring_nobw": {"throughput_msgs_per_s": tput_ring},
                },
            }
        }
    }


def test_ring_origin_balance_is_a_hard_bound(tmp_path):
    baseline = _empty_baseline(tmp_path)
    ok = _sweep_doc(origin_over_mean=1.3, tput_ring=960.0)
    assert check(ok, baseline, tolerance=0.25) == []
    hot = _sweep_doc(origin_over_mean=RING_ORIGIN_BALANCE_BOUND + 0.5, tput_ring=960.0)
    problems = check(hot, baseline, tolerance=0.25)
    assert len(problems) == 1
    assert "origin_over_mean" in problems[0]
    assert str(RING_ORIGIN_BALANCE_BOUND) in problems[0]


def test_ring_throughput_floor_is_a_hard_bound(tmp_path):
    baseline = _empty_baseline(tmp_path)
    floor = 1000.0 * DISSEMINATION_THROUGHPUT_FLOOR
    assert check(_sweep_doc(1.3, floor + 1.0), baseline, tolerance=0.25) == []
    problems = check(_sweep_doc(1.3, floor - 1.0), baseline, tolerance=0.25)
    assert len(problems) == 1
    assert "ring dissemination regressed throughput" in problems[0]


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
    flood, ring = run_dissemination("flood", 2_000.0), run_dissemination("ring", 2_000.0)
    assert ring["rb"]["forwarded"] == 300
    assert control_goes_direct(ring)
    assert not control_goes_direct({"rb": {"forwarded": 600}})
    assert ring_decides_like_flood(ring, flood)
    slow = {"decision_path": {"p50_decide_ms": 27.4}}
    assert not ring_decides_like_flood(slow, {"decision_path": {"p50_decide_ms": 16.8}})
