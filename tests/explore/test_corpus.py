"""The curated corpus of known-tricky schedules must stay invariant-clean.

Each ``corpus/*.json`` entry is a schedule that historically stresses a
protocol-sensitive window (crash during generic-broadcast conflict
resolution, suspicion during a view-change ctl op, partition+heal
mid-consensus).  Every tier-1 run re-executes all of them with the full
online battery and the post-hoc agreement check.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.checkers import app_history
from repro.core.new_stack import StackConfig
from repro.explore import runner
from repro.explore.observers import ObserverPanel
from repro.explore.explorer import load_repro
from repro.explore.runner import run_scenario
from repro.explore.scenario import ScenarioConfig
from repro.monitoring.component import MonitoringPolicy

CORPUS_DIR = Path(__file__).parent / "corpus"
ENTRIES = sorted(CORPUS_DIR.glob("*.json"))


def entry(name: str | Path) -> ScenarioConfig:
    """The scenario of a corpus entry, by stem or path, through the
    loader ``python -m repro explore --replay`` uses."""
    return load_repro(CORPUS_DIR / f"{name}.json" if isinstance(name, str) else name)[0]


def test_corpus_is_not_empty():
    assert len(ENTRIES) >= 3


@pytest.mark.parametrize("path", ENTRIES, ids=lambda p: p.stem)
def test_corpus_entry_holds_all_invariants(path):
    config, _ = load_repro(path)
    assert config.plan.events, f"{path.stem}: corpus entry should inject faults"
    result, _world = run_scenario(config)
    assert result.violation is None, result.violation
    assert result.converged, "corpus schedule failed to converge"


@pytest.mark.parametrize("path", ENTRIES, ids=lambda p: p.stem)
def test_panel_saw_every_stream_the_stacks_hold(path, monkeypatch):
    # Post-hoc, explore checks agreement only: everything else was checked
    # online, over streams that are the stacks' own delivery and view logs.
    built, build_world = [], runner.build_world

    def build_and_keep(config, trace=False):
        built.append(build_world(config, trace))
        return built[-1]

    monkeypatch.setattr(runner, "build_world", build_and_keep)
    run_scenario(entry(path))
    _world, stacks, panel = built[0]
    for stack in stacks.values():
        actor = ObserverPanel.actor_name(stack)
        assert panel.app_log[actor] == [f"{m.id}|{m.msg_class}" for m in app_history(stack)]
        assert panel.view_log[actor] == [str(v) for v in stack.membership.view_history]


@pytest.mark.parametrize("path", ENTRIES, ids=lambda p: p.stem)
def test_corpus_entry_round_trips_through_json(path):
    config = entry(path)
    assert ScenarioConfig.from_json_obj(config.to_json_obj()) == config
    # The link is written back with exactly the keys it was recorded with.
    assert config.to_json_obj()["link"] == json.loads(path.read_text())["config"]["link"]


@pytest.mark.parametrize("path", ENTRIES, ids=lambda p: p.stem)
def test_corpus_entry_writes_every_stack_key(path):
    # An entry pins the configuration it was recorded on; a key left to
    # a default would silently follow the next change of that default.
    # Loading fills a missing key with its default, writing puts it back.
    stack = json.loads(path.read_text())["config"]["stack"]
    assert stack == entry(path).to_json_obj()["stack"]


def test_the_stack_round_trips_every_stack_config_field():
    stack = StackConfig(suspicion_timeout=45.0, monitoring=MonitoringPolicy(votes_required=2))
    config = ScenarioConfig(stack=stack)
    assert ScenarioConfig.from_json_obj(config.to_json_obj()).stack == stack
    for unknown in ({"exclusion_timeout": 900.0}, {"monitoring": {"use_output_triggered": True}}):
        with pytest.raises(TypeError):
            ScenarioConfig.from_json_obj({**config.to_json_obj(), "stack": unknown})


#: Counters that must move for an entry to still hit the mechanism it
#: was recorded for (the fast-path entries have their own test below).
MECHANISM_COUNTERS = {
    # A member out of a partition a-delivers an ENDSTAGE 26 ms behind
    # the others, whose acks for the next stage are already there.
    "acks-arrive-a-stage-early": ("gbcast.acks_early",),
    "decide-before-dissemination-fetch": (
        "abcast.decide_before_dissemination", "abcast.pulls_sent", "abcast.repaired",
    ),
    "exclusion-rejoin-channel-hole": ("rc.gap_notices", "rc.gap_skips"),
    # The new watcher's report is adopted by those who already turned to
    # it and ignored by those who have not; whoever is turned to answers.
    "head-and-mid-chain-crash-over-the-ring": (
        "fd.reports_adopted", "fd.reports_ignored", "fd.answered_in_kind", "rb.reroutes",
    ),
    "one-way-cut-from-the-head-under-load": ("net.dropped.partition", "fd.answered_in_kind"),
    "one-closer-liveness-ladder": ("gbcast.closes_deferred",),
    # A member rbcasts before it installs the rejoiner's view: the
    # packet is never addressed to the rejoiner, which NACKs for it —
    # when an ENDSTAGE names the stranded CHK (abcast's blocked head
    # asks, as here), else when the watermark gossip shows the hole.
    "rejoin-window-stability-hole": ("rb.nacks_sent", "rb.overlay_repairs"),
    # A member behind the rejoiner's own view answers its join request.
    "stale-sponsor-cannot-roll-back": ("gm.stale_snapshots_refused",),
    # The successor's crash: the chain forwards around it, and each
    # survivor's suspicion edge NACKs a packet the other retained.
    "ring-successor-crash-mid-dissemination": ("rb.forwarded", "rb.overlay_repairs"),
}


@pytest.mark.parametrize("stem", sorted(MECHANISM_COUNTERS))
def test_corpus_entry_still_hits_its_mechanism(stem):
    _result, world = run_scenario(entry(stem))
    for name in MECHANISM_COUNTERS[stem]:
        assert world.metrics.counters.get(name) > 0, (stem, name)


def test_one_way_cut_entry_blinds_one_member_to_the_head_only():
    config = entry("one-way-cut-from-the-head-under-load")
    _result, world = run_scenario(config, trace=True)
    edges = [
        (record.pid, record.event, record.details["peer"])
        for record in world.trace.select(component="fd")
        if record.event in ("suspect", "trust")
        and record.details["timeout"] == config.stack.suspicion_timeout
    ]
    assert edges == [("p03", "suspect", "p00"), ("p03", "trust", "p00")]


def test_same_incarnation_entry_installs_two_snapshots():
    # One recovery, two state transfers: the second install is the same
    # incarnation's, over a delivered set it must keep.
    _result, world = run_scenario(entry("same-incarnation-rejoin-keeps-dedup"))
    assert world.metrics.counters.get("world.recoveries") == 1
    assert world.metrics.counters.get("gm.state_transfers") == 2


def test_one_closer_entry_climbs_every_rung_of_the_ladder():
    # Beside the deferred closes counted above: a non-closer closes on
    # its own ack timeout (un-gated), and a member that suspects the
    # closer promotes itself on the suspicion edge.
    _result, world = run_scenario(entry("one-closer-liveness-ladder"), trace=True)
    closes = {
        (record.pid, record.details["reason"])
        for record in world.trace.select(component="gbcast", event="endstage")
    }
    assert {("p00", "conflict"), ("p02", "timeout"), ("p01", "nudge")} <= closes


def test_fast_path_corpus_entries_exercise_the_crash_window():
    # The two fast-path entries must actually hit the window they pin:
    # the fast path fired before the crash and instances escaped round 0
    # after it (the coordinator died mid-decision).
    for stem in (
        "fast-path-coordinator-crash-pre-ack",
        "fast-path-coordinator-crash-post-ack",
    ):
        result, world = run_scenario(entry(stem))
        assert result.violation is None, (stem, result.violation)
        counters = world.metrics.counters
        assert counters.get("consensus.fast_path_proposals") > 0, stem
        escaped = {
            rnd: count
            for rnd, count in counters.by_prefix("consensus.decided_round_").items()
            if rnd != "0"
        }
        assert escaped, f"{stem}: no instance escaped round 0"


def test_fast_path_window_shrinks_and_replays_via_cli(tmp_path):
    # Arm the nastiest fast-path window with a known ordering bug: the
    # explore machinery must catch it, shrink the schedule, and replay
    # the repro file byte-identically through ``python -m repro explore``.
    # The mutation's victim is the first pid, and crash recovery rebuilds
    # a victim's stack (healing the injected bug) while post-hoc checks
    # skip ever-crashed processes — so the crash is retargeted to p01,
    # keeping the fast-path stack and the crash instant of the window.
    from repro.explore.cli import main as explore_main
    from repro.explore.explorer import reproduces_invariant, write_repro
    from repro.explore.shrink import shrink_scenario
    from repro.workload.generators import FaultPlan

    base = entry("fast-path-coordinator-crash-post-ack")
    config = replace(
        base,
        mutation="skip_delivery",
        plan=FaultPlan([replace(e, target="p01") for e in base.plan.events]),
    )
    result, _world = run_scenario(config)
    assert result.violation is not None
    invariant = result.violation["invariant"]

    shrunk, _attempts = shrink_scenario(
        config, reproduces_invariant(invariant), max_attempts=40
    )
    shrunk_result, _world = run_scenario(shrunk)
    assert shrunk_result.violation["invariant"] == invariant
    assert shrunk.stack == config.stack  # knobs survive shrinking

    repro = write_repro(tmp_path / "repro.json", shrunk, shrunk_result)
    assert explore_main(["--replay", str(repro), "--json"]) == 0
