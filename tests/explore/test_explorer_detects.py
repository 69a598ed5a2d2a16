"""Mutation testing of the harness itself: a deliberately injected
ordering bug must be caught, shrunk, and replayed from its repro file —
the acceptance criterion of the exploration subsystem."""

import json

import pytest

from repro.explore.explorer import (
    adversarial_plan,
    explore_seed,
    probe_instants,
    replay_repro,
    reproduces_invariant,
    scenario_for_seed,
    write_repro,
)
from repro.explore.runner import run_scenario
from repro.explore.scenario import ScenarioConfig
from repro.explore.shrink import shrink_scenario
from repro.workload.generators import FaultEvent, FaultPlan

#: A mutated scenario with deliberately redundant fault noise the
#: shrinker should strip away.
MUTATED = ScenarioConfig(
    seed=3,
    processes=4,
    duration=1_200.0,
    rate=30.0,
    conflict_weight=0.8,
    plan=FaultPlan(
        [
            FaultEvent(at=700.0, kind="partition", target=[["p00", "p01", "p02"], ["p03"]]),
            FaultEvent(at=800.0, kind="heal"),
            FaultEvent(at=900.0, kind="crash", target="p03"),
            FaultEvent(at=1_100.0, kind="recover", target="p03"),
        ]
    ),
    mutation="reorder_conflicting",
)


def test_reorder_bug_is_caught_online():
    result, _world = run_scenario(MUTATED)
    assert result.violation is not None
    assert result.violation["invariant"] == "conflict-order"
    assert result.violation["phase"] == "online"
    # Fail-fast: the run aborted at the violation, long before the horizon.
    assert result.sim_time < MUTATED.duration


def test_skip_bug_is_caught_posthoc():
    config = ScenarioConfig(
        seed=3, processes=4, duration=1_200.0, rate=30.0, conflict_weight=0.8,
        mutation="skip_delivery",
    )
    result, _world = run_scenario(config)
    assert result.violation is not None
    assert result.violation["invariant"] == "agreement"
    assert result.violation["phase"] == "posthoc"


def test_caught_bug_is_shrunk_and_replays_from_its_repro_file(tmp_path):
    result, _world = run_scenario(MUTATED)
    invariant = result.violation["invariant"]

    shrunk, attempts = shrink_scenario(
        MUTATED, reproduces_invariant(invariant), max_attempts=60
    )
    assert attempts > 0
    assert len(shrunk.plan.events) <= len(MUTATED.plan.events)
    assert shrunk.processes <= MUTATED.processes
    assert shrunk.duration <= MUTATED.duration
    # The fault noise is irrelevant to the injected bug: all stripped.
    assert shrunk.plan.events == []

    shrunk_result, _world = run_scenario(shrunk)
    assert shrunk_result.violation["invariant"] == invariant

    path = write_repro(tmp_path / "repro.json", shrunk, shrunk_result)
    replay = replay_repro(path)
    assert replay.reproduced, (replay.result.violation, replay.expected)
    assert replay.result.fingerprint == shrunk_result.fingerprint
    # The artifact says who was blind to whom when the run ended.
    fd_at_end = json.loads(path.read_text())["fd_at_end"]
    assert set(fd_at_end) == {f"p{i:02d}" for i in range(shrunk.processes)}
    assert all(
        fd == {"suspects": [], "watcher": "p00", "first_hand": ["p00"]}
        for pid, fd in fd_at_end.items()
        if pid != "p00"
    )


def test_unknown_mutation_is_rejected():
    config = ScenarioConfig(seed=0, mutation="no-such-bug")
    with pytest.raises(ValueError, match="unknown mutation"):
        run_scenario(config)


def test_probe_finds_protocol_sensitive_instants():
    instants = probe_instants(scenario_for_seed(1))
    assert len(instants) > 10
    assert instants == sorted(instants)


def test_adversarial_plans_keep_the_group_live():
    for seed in range(12):
        config = scenario_for_seed(seed)
        plan = adversarial_plan(config, probe_instants(config))
        minority = max(1, (config.processes - 1) // 2)
        assert len(plan.crashed_pids()) <= minority
        partitions = [e for e in plan.events if e.kind == "partition"]
        heals = [e for e in plan.events if e.kind == "heal"]
        assert len(heals) == len(partitions), "every partition must heal"
        for event in partitions:
            smallest = min(len(g) for g in event.target)
            assert smallest <= minority


def test_explored_seed_runs_clean_on_the_current_stack():
    report = explore_seed(0)
    assert report.result.violation is None
    assert report.result.converged
