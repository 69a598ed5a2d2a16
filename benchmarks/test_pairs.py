"""The verdict of ``pairs.py``: nine tenths of the pairs won, and the
medians further apart than the parent's quartiles."""

import pytest
from pairs import contract, contract_command, quartiles, seed_range, traced_medians, verdict

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
