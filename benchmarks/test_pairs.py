"""The verdict of ``pairs.py``: nine tenths of the pairs won, and the
medians further apart than the parent's quartiles; and its exit status."""

import pytest
from pairs import (
    NOT_CLAIMED,
    REGRESSED,
    contract,
    contract_bounds,
    contract_command,
    contract_metrics,
    judge,
    quartiles,
    main,
    report,
    seed_range,
    traced_medians,
    verdict,
)

PARENT = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 100.0]


def test_a_clear_gain_is_claimed():
    result = verdict(PARENT, [p * 1.3 for p in PARENT], "higher")
    assert (result.pairs, result.wins, result.ties) == (10, 10, 0)
    assert result.ratio == pytest.approx(1.3)
    assert result.claimed


def test_nine_wins_of_ten_suffice_and_eight_do_not():
    change = [p * 1.3 for p in PARENT]
    nine = change[:9] + [PARENT[9] - 1.0]
    assert verdict(PARENT, nine, "higher").claimed
    eight = change[:8] + [PARENT[8] - 1.0, PARENT[9] - 1.0]
    assert not verdict(PARENT, eight, "higher").claimed


def test_ties_count_for_neither_side():
    change = [p * 1.3 for p in PARENT[:9]] + [PARENT[9]]
    result = verdict(PARENT, change, "higher")
    assert (result.wins, result.ties) == (9, 1)
    assert result.claimed
    change = [p * 1.3 for p in PARENT[:8]] + PARENT[8:]
    assert not verdict(PARENT, change, "higher").claimed


def test_every_pair_won_by_less_than_the_parent_spread_is_not_a_gain():
    low, _median, high = quartiles(PARENT)
    spread = high - low
    assert spread > 0
    result = verdict(PARENT, [p + spread / 2 for p in PARENT], "higher")
    assert result.wins == 10 and not result.claimed
    assert verdict(PARENT, [p + spread * 1.01 for p in PARENT], "higher").claimed


def test_lower_is_better_metrics_gain_downwards():
    result = verdict(PARENT, [p * 0.7 for p in PARENT], "lower")
    assert result.wins == 10 and result.gain > 0 and result.claimed
    assert not verdict(PARENT, [p * 1.3 for p in PARENT], "lower").claimed


def test_readings_must_pair_up():
    with pytest.raises(ValueError):
        verdict(PARENT, PARENT[:5], "higher")
    with pytest.raises(ValueError):
        verdict([], [], "higher")


def test_the_command_is_the_contract_command():
    spec = contract()
    command = contract_command("bank_commute", 7)
    assert command[:len(spec["command"])] == spec["command"]
    assert command[len(spec["command"]):] == [
        "--workload", "bank_commute", "--seed", "7",
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]


def test_the_traced_command_differs_only_in_its_trace_flag():
    plain = contract_command("bulk_ring", 3)
    traced = contract_command("bulk_ring", 3, trace=True)
    assert traced[:-1] == plain[:-1] and (plain[-1], traced[-1]) == ("0", "1")


def traced_run(**values):
    return {"metrics": {name.replace("__", "."): {"value": value, "unit": "-"}
                        for name, value in values.items()}}


def test_traced_medians_are_per_layer_host_time_and_calls_only():
    readings = [(10.0, 100.0, 7.0), (30.0, 300.0, 8.0), (20.0, 200.0, 9.0)]
    runs = [
        {"traced": {
            "parent": traced_run(fd__host_self_us_per_op=us, fd__calls_per_op=calls,
                                 fd__msgs_per_op=msgs),
            "change": traced_run(fd__host_self_us_per_op=us / 2, fd__calls_per_op=calls - 50,
                                 fd__msgs_per_op=msgs),
        }}
        for us, calls, msgs in readings
    ]
    assert traced_medians(runs) == [
        ("fd.host_self_us_per_op", 20.0, 10.0),
        ("fd.calls_per_op", 200.0, 150.0),
    ]


def test_seed_ranges():
    assert seed_range("1:4") == [1, 2, 3]
    assert seed_range("5,9") == [5, 9]


# ----------------------------------------------------------------------
# One verdict per end-to-end metric, against its bound
# ----------------------------------------------------------------------
#: A parent whose inter-quartile distance is 2 % of its median.
STEADY = [100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0]


def test_a_metric_is_worse_beyond_both_its_bound_and_the_parent_spread():
    low, median, high = quartiles(STEADY)
    assert (high - low) / median == pytest.approx(0.02)
    assert judge(STEADY, [p * 1.06 for p in STEADY], "lower", 0.05) == "worse"
    assert judge(STEADY, [p * 0.94 for p in STEADY], "higher", 0.05) == "worse"
    # Within the bound: the same, whichever way it leans.
    assert judge(STEADY, [p * 1.04 for p in STEADY], "lower", 0.05) == "same"
    # Beyond a bound narrower than the spread, but not beyond the spread.
    assert judge(STEADY, [p * 1.015 for p in STEADY], "lower", 0.01) == "unresolved"


def test_a_spread_wider_than_the_bound_is_unresolved_not_same():
    noisy = [80.0, 120.0, 100.0, 90.0, 110.0, 100.0, 85.0, 115.0, 95.0, 105.0]
    assert judge(noisy, list(noisy), "higher", 0.05) == "unresolved"
    # ... unless every change reading beats every parent reading.
    assert judge(noisy, [p + 100.0 for p in noisy], "higher", 0.05) == "better"
    # Worse beyond the spread is worse all the same.
    assert judge(noisy, [p * 0.5 for p in noisy], "higher", 0.05) == "worse"


def test_exact_metrics_are_same_when_equal_and_better_on_any_gain():
    exact = [59.6] * 10
    assert judge(exact, list(exact), "lower", 0.15) == "same"
    assert judge(exact, [59.5] * 10, "lower", 0.15) == "better"
    assert judge(exact, [59.7] * 10, "lower", 0.15) == "same"  # within the bound
    assert judge(exact, [59.6 * 1.2] * 10, "lower", 0.15) == "worse"


def test_a_host_gain_within_the_parent_spread_is_the_same():
    assert judge(STEADY, [p * 1.01 for p in STEADY], "higher", 0.25) == "same"
    assert judge(STEADY, [p * 1.10 for p in STEADY], "higher", 0.25) == "better"


def contract_line(jitter: float, **scaled: float) -> dict:
    """One contract line: every end-to-end metric at 10, the host ones
    times ``jitter``, each metric named in ``scaled`` times its factor."""
    host = ("setup_s", "host_ops_per_s", "host_peak_rss_mb")
    return {"correct": True, "failed": 0, "metrics": {
        name: {"value": 10.0 * (jitter if name in host else 1.0) * scaled.get(name, 1.0),
               "unit": "-"}
        for name in contract_metrics()
    }}


def verdicts_printed(out: str) -> dict[str, str]:
    names = set(contract_metrics())
    return {row[0]: row[-1] for row in map(str.split, out.splitlines()) if row and row[0] in names}


JITTER = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98]


def pairs_of(**scaled: float) -> list[dict]:
    """Six pairs whose change side is the parent's times ``scaled``."""
    return [{"parent": contract_line(j), "change": contract_line(j, **scaled)} for j in JITTER]


def test_report_prints_every_metric_s_verdict_and_flags_a_worse_one(capsys):
    assert set(contract_bounds()) == set(contract_metrics())
    faster = pairs_of(host_ops_per_s=1.3)
    assert report(faster, "host_ops_per_s") == 0
    assert verdicts_printed(capsys.readouterr().out) == {
        "setup_s": "same", "sim_latency_p50_ms": "same", "wire_msgs_per_op": "same",
        "wire_bytes_per_op": "same", "host_ops_per_s": "better", "host_peak_rss_mb": "same",
    }
    heavier = pairs_of(host_ops_per_s=1.3, host_peak_rss_mb=1.2)
    assert report(heavier, "host_ops_per_s") == REGRESSED
    assert verdicts_printed(capsys.readouterr().out)["host_peak_rss_mb"] == "worse"


def test_a_comparison_that_claims_nothing_exits_0_when_nothing_regressed(capsys):
    assert report(pairs_of()) == 0
    assert "claim: none" in capsys.readouterr().out
    # A gain nobody claimed is no failure either.
    assert report(pairs_of(host_ops_per_s=1.3)) == 0


def test_a_claim_that_does_not_hold_exits_2(capsys):
    assert report(pairs_of(), "host_ops_per_s") == NOT_CLAIMED
    assert "host_ops_per_s: change wins 0 of 6 pairs" in capsys.readouterr().out
    # A claim in the wrong direction does not hold: more memory is no gain.
    assert report(pairs_of(host_peak_rss_mb=1.05), "host_peak_rss_mb") == NOT_CLAIMED


def test_a_lower_is_better_claim_on_peak_memory_holds_downwards(capsys):
    assert report(pairs_of(host_peak_rss_mb=0.86), "host_peak_rss_mb") == 0
    out = capsys.readouterr().out
    assert "host_peak_rss_mb: change wins 6 of 6 pairs" in out and "CLAIMED" in out
    assert verdicts_printed(out)["host_peak_rss_mb"] == "better"


def test_unhealthy_runs_exit_1_whatever_the_claim():
    failed = pairs_of(host_peak_rss_mb=0.86)
    failed[2]["change"]["failed"] = 1
    assert report(failed, "host_peak_rss_mb") == REGRESSED
    wrong = pairs_of()
    wrong[0]["parent"]["correct"] = False
    assert report(wrong) == REGRESSED


def test_exact_metrics_that_differ_exit_1_unless_an_exact_metric_is_claimed():
    fewer = pairs_of(wire_msgs_per_op=0.95)
    assert report(fewer) == REGRESSED
    assert report(fewer, "host_peak_rss_mb") == REGRESSED
    assert report(fewer, "wire_msgs_per_op") == 0
    # An exact metric is claimed where judge reads better.
    assert report(pairs_of(), "wire_msgs_per_op") == NOT_CLAIMED
    assert report(pairs_of(wire_msgs_per_op=1.05), "wire_msgs_per_op") == NOT_CLAIMED


def test_the_claim_must_be_an_end_to_end_metric_of_the_contract(capsys):
    with pytest.raises(SystemExit):
        main(["HEAD", "--workload", "failover", "--claim", "sim.events_per_op"])
    assert "invalid choice" in capsys.readouterr().err
