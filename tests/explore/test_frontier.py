"""The explore frontier, pinned: every seed known to fail, as a strict xfail.

``frontier.json`` lists the seeds of ``0:6000``, per sampler profile and
with the way each fails; the nightly deep sweep is held to the same file
(``check_frontier.py``).  Each test runs one seed's adversarial scenario
and asserts what a fixed protocol must give — no violation, and a
converged group.  Today each fails as ROADMAP items 1 and 3 describe.  A
fix turns its pin XPASS, which fails the suite until the marker goes
(and its entry with it); a timing change that hides a seed without a fix
shows up the same way.  Only the entries below :data:`PINNED_BELOW` are
pinned here, so the suite's time does not grow with the sweep's depth.

Two samplers, ``explore_seed``'s two profiles: the default draw, and the
same draw on the shipping ``StackConfig()`` but for the drawn
dissemination overlay and exclusion timeout.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.core.new_stack import StackConfig
from repro.explore.explorer import explore_seed, replay_repro, scenario_for_seed, sweep

from tests.explore.check_frontier import FRONTIER, main

AGREEMENT = "ROADMAP 1: a re-admitted incarnation holds a forgotten vote (agreement-prefix)"
UNCONVERGED = "ROADMAP 3: a head crash wedges delivery (the run does not converge)"
REASONS = {"agreement-prefix": AGREEMENT, "unconverged": UNCONVERGED}

#: Entries at or above this seed are left to the nightly sweep.
PINNED_BELOW = 1300


def pinned(profile: str) -> list:
    """``profile``'s frontier seeds below :data:`PINNED_BELOW`, each a
    strict xfail."""
    return [
        pytest.param(
            entry["seed"],
            marks=pytest.mark.xfail(
                strict=True, raises=AssertionError, reason=REASONS[entry["family"]]
            ),
        )
        for entry in FRONTIER[profile]
        if entry["seed"] < PINNED_BELOW
    ]


def assert_clean_and_converged(result) -> None:
    assert result.violation is None, result.violation
    assert result.converged, f"{result.deliveries} deliveries, {result.events} events"


@pytest.mark.parametrize("seed", pinned("default"))
def test_default_sampler_seed_is_clean_and_converges(seed):
    assert_clean_and_converged(explore_seed(seed).result)


@pytest.mark.parametrize("seed", pinned("ship"))
def test_ship_profile_seed_is_clean_and_converges(seed):
    assert_clean_and_converged(explore_seed(seed, "ship").result)


def test_the_ship_profile_is_the_default_draw_on_the_shipping_stack():
    for seed in range(200):
        default, ship = scenario_for_seed(seed), scenario_for_seed(seed, "ship")
        assert replace(ship, stack=default.stack) == default, seed
        drawn, shipping = default.stack, StackConfig()
        assert ship.stack == replace(
            shipping,
            dissemination=drawn.dissemination,
            monitoring=replace(
                shipping.monitoring, exclusion_timeout=drawn.monitoring.exclusion_timeout
            ),
        ), seed


#: The pinned failures below 1300, as ``(profile, seed, family)``.
PINNED = [
    ("default", 523, "agreement-prefix"),
    ("default", 762, "unconverged"),
    ("default", 1029, "unconverged"),
    ("ship", 134, "agreement-prefix"),
    ("ship", 147, "unconverged"),
    ("ship", 359, "agreement-prefix"),
    ("ship", 1029, "unconverged"),
]


@pytest.fixture
def judge(tmp_path, capsys):
    """``check_frontier.py`` on an explore ``--json`` summary of ``lo:hi``
    that fails as ``failures`` says: its exit status and what it printed
    before its verdict."""

    def run(lo: int, hi: int, failures: list) -> tuple[int, list[str]]:
        doc = {
            "seeds": [lo, hi],
            "violations": [
                {"profile": p, "seed": seed, "invariant": family, "repro": None}
                for p, seed, family in failures
                if family != "unconverged"
            ],
            "unconverged": [
                {"profile": p, "seed": seed, "repro": None}
                for p, seed, family in failures
                if family == "unconverged"
            ],
        }
        path = tmp_path / "explore.json"
        path.write_text(json.dumps(doc))
        return main([str(path)]), capsys.readouterr().out.splitlines()[:-1]

    return run


def test_the_nightly_gate_holds_a_sweep_to_exactly_the_pinned_seeds_in_its_range(judge):
    assert judge(0, 1300, PINNED) == (0, [])
    assert judge(0, 600, [f for f in PINNED if f[1] < 600]) == (0, [])
    assert judge(0, 1300, PINNED + [("ship", 5, "agreement-prefix")]) == (
        1,
        ["ship seed 5: agreement-prefix, not pinned"],
    )
    moved = [("ship", 134, "unconverged") if f[:2] == ("ship", 134) else f for f in PINNED]
    assert judge(0, 1300, moved) == (
        1,
        [
            "ship seed 134: unconverged, not pinned",
            "ship seed 134: pinned as agreement-prefix, not seen",
        ],
    )
    missing = ["default seed 523: pinned as agreement-prefix, not seen"]
    assert judge(0, 1300, PINNED[1:]) == (1, missing)


def test_the_nightly_gate_judges_each_profile_against_its_own_entries(judge):
    # Ship seed 134's failure, tagged as the default profile's.
    swapped = [("default", *f[1:]) if f[:2] == ("ship", 134) else f for f in PINNED]
    assert judge(0, 1300, swapped) == (
        1,
        [
            "default seed 134: agreement-prefix, not pinned",
            "ship seed 134: pinned as agreement-prefix, not seen",
        ],
    )


def test_an_unconverged_run_writes_a_repro_file_that_replays(tmp_path):
    # Seed 147 runs clean under the default profile and wedges under ship.
    summary = sweep(range(147, 148), out_dir=tmp_path)
    (report,) = summary.unconverged
    assert (report.profile, summary.failures) == ("ship", [])
    assert [p.name for p in tmp_path.iterdir()] == ["repro-seed147-ship-unconverged.json"]
    recorded = json.loads(report.repro_path.read_text())
    assert recorded["invariant"] == "unconverged"
    assert recorded["blocked"] == report.result.stats["blocked"]
    assert recorded["posthoc"] == report.result.stats["posthoc"]
    replay = replay_repro(report.repro_path)
    assert replay.reproduced and not replay.result.converged


@pytest.mark.parametrize(
    "run",
    [lambda: explore_seed(2007).result, lambda: explore_seed(2581, "ship").result],
    ids=["default-2007", "ship-2581"],
)
def test_a_head_wedge_reads_unconverged_not_agreement(run):
    # ROADMAP 3's wedge: the survivors' atomic broadcast waits for a body
    # only the decision names, so their histories differ because they
    # stall, not because they diverged (ROADMAP 23(a)).
    result = run()
    assert result.violation is None, result.violation
    assert not result.converged
    assert result.stats["posthoc"]
    namers = [namer for waits in result.stats["blocked"].values() for namer in waits.values()]
    assert namers and set(namers) == {"decision"}
