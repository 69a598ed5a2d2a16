"""Unit tests for the workload generators and their replay."""

import json

import pytest

from repro.explore.runner import run_scenario
from repro.explore.scenario import ScenarioConfig
from repro.workload.generators import FaultEvent, FaultPlan, explore_mix

from tests.conftest import new_group


def test_workload_is_deterministic():
    mix = {"a": 1.0, "b": 1.0}
    assert explore_mix(1_000.0, 50.0, 3, mix, seed=5) == explore_mix(
        1_000.0, 50.0, 3, mix, seed=5
    )


def test_workload_respects_duration_and_rate():
    ops = explore_mix(2_000.0, 100.0, 3, {"a": 1.0}, seed=1)
    assert all(0 <= op.at < 2_000.0 for op in ops)
    # ~200 expected; Poisson so allow wide slack.
    assert 120 < len(ops) < 300
    assert all(op.msg_class == "a" for op in ops)
    assert all(0 <= op.sender_index < 3 for op in ops)


def test_class_weights_shape_the_mix():
    ops = explore_mix(5_000.0, 100.0, 2, {"rare": 0.1, "common": 0.9}, seed=2)
    rare = sum(1 for op in ops if op.msg_class == "rare")
    assert 0 < rare < len(ops) * 0.25


def test_fault_plan_minority_only():
    pids = [f"p{i:02d}" for i in range(5)]
    plan = FaultPlan.minority_crashes(pids, duration=1_000.0, count=2, seed=4)
    assert len(plan.crashed_pids()) == 2
    with pytest.raises(ValueError):
        FaultPlan.minority_crashes(pids, duration=1_000.0, count=3)


def test_fault_plan_apply_crashes_at_times():
    world, stacks, _ = new_group()
    plan = FaultPlan.minority_crashes(sorted(stacks), duration=1_000.0, count=1, seed=6)
    plan.apply(world)
    victim = next(iter(plan.crashed_pids()))
    world.run_for(1_500.0)
    assert world.processes[victim].crashed


def test_driver_converges_failure_free():
    # abcast conflicts with both classes, rbcast commutes with itself, 80/20.
    config = ScenarioConfig(
        seed=8, processes=3, duration=300.0, rate=60.0,
        relation="rbcast_abcast", conflict_weight=0.2,
    )
    result, _world = run_scenario(config)
    assert result.violation is None, result.violation
    assert result.converged
    assert result.issued == len(
        explore_mix(300.0, 60.0, 3, config.class_weights(), seed=8)
    )


def test_driver_converges_with_crash():
    # Deposits commute with each other; withdrawals conflict with both.
    plan = FaultPlan.minority_crashes(
        [f"p{i:02d}" for i in range(5)], duration=400.0, count=2, seed=9
    )
    config = ScenarioConfig(
        seed=9, processes=5, duration=400.0, rate=40.0,
        relation="bank", conflict_weight=0.3, plan=plan,
    )
    result, world = run_scenario(config)
    assert result.violation is None, result.violation
    assert result.converged
    assert sorted(p for p in world.processes if not world.processes[p].crashed) == sorted(
        {f"p{i:02d}" for i in range(5)} - plan.crashed_pids()
    )


def test_fault_plan_json_round_trip():
    plan = FaultPlan(
        [
            FaultEvent(at=100.0, kind="crash", target="p01"),
            FaultEvent(at=250.5, kind="recover", target="p01"),
            FaultEvent(at=400.0, kind="partition", target=[["p00", "p02"], ["p01"]]),
            FaultEvent(at=600.0, kind="heal"),
        ]
    )
    obj = plan.to_json_obj()
    assert FaultPlan.from_json_obj(obj) == plan
    # The JSON form is plain data (what repro files store).
    assert json.loads(json.dumps(obj)) == obj
    assert plan.duration() == 600.0
    assert FaultPlan().duration() == 0.0


def test_fault_event_json_validates_targets():
    with pytest.raises(ValueError):
        FaultEvent.from_json_obj({"at": 1.0, "kind": "crash"})
    with pytest.raises(ValueError):
        FaultEvent.from_json_obj({"at": 1.0, "kind": "partition", "target": "p00"})


def test_explore_mix_is_deterministic_and_weighted():
    weights = {"abcast": 0.2, "rbcast": 0.8}
    ops = explore_mix(2_000.0, 30.0, senders=4, class_weights=weights, seed=7)
    again = explore_mix(2_000.0, 30.0, senders=4, class_weights=weights, seed=7)
    assert ops == again
    assert ops, "non-trivial mix expected"
    classes = {op.msg_class for op in ops}
    assert classes == {"abcast", "rbcast"}
    rare = sum(1 for op in ops if op.msg_class == "abcast")
    assert rare < len(ops) / 2
    assert all(0.0 <= op.at < 2_000.0 for op in ops)
    assert all(0 <= op.sender_index < 4 for op in ops)
