"""The explore frontier, pinned: every seed known to fail, as a strict xfail.

``frontier.json`` lists the seeds, per sampler profile and with the way
each fails; the nightly deep sweep is held to the same file
(``check_frontier.py``).  Each test runs one seed's adversarial scenario
and asserts what a fixed protocol must give — no violation, and a
converged group.  Today each fails as ROADMAP items 1 and 3 describe.  A
fix turns its pin XPASS, which fails the suite until the marker goes
(and its entry with it); a timing change that hides a seed without a fix
shows up the same way.

Two samplers: the default draw (``explore_seed``), and the same draw
forced to the shipping ``StackConfig()`` knobs — ``abcast_window`` 4,
``relay_policy`` lazy, ``coalesce_delay`` 1.0 — with every other draw of
the seed unchanged.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.explore.explorer import (
    adversarial_plan,
    explore_seed,
    probe_instants,
    scenario_for_seed,
)
from repro.explore.runner import run_scenario

from tests.explore.check_frontier import FRONTIER, main, mismatches

AGREEMENT = "ROADMAP 1: a re-admitted incarnation holds a forgotten vote (agreement-prefix)"
UNCONVERGED = "ROADMAP 3: a head crash wedges delivery (the run does not converge)"
REASONS = {"agreement-prefix": AGREEMENT, "unconverged": UNCONVERGED}


def pinned(profile: str) -> list:
    """``profile``'s frontier seeds, each a strict xfail."""
    return [
        pytest.param(
            entry["seed"],
            marks=pytest.mark.xfail(
                strict=True, raises=AssertionError, reason=REASONS[entry["family"]]
            ),
        )
        for entry in FRONTIER[profile]
    ]


def ship_result(seed: int):
    """``seed``'s adversarial run with the shipping stack knobs forced."""
    base = scenario_for_seed(seed)
    base = replace(
        base,
        stack=replace(base.stack, abcast_window=4, relay_policy="lazy", coalesce_delay=1.0),
    )
    config = base.with_plan(adversarial_plan(base, probe_instants(base)))
    return run_scenario(config)[0]


def assert_clean_and_converged(result) -> None:
    assert result.violation is None, result.violation
    assert result.converged, f"{result.deliveries} deliveries, {result.events} events"


@pytest.mark.parametrize("seed", pinned("default"))
def test_default_sampler_seed_is_clean_and_converges(seed):
    assert_clean_and_converged(explore_seed(seed).result)


@pytest.mark.parametrize("seed", pinned("ship"))
def test_ship_profile_seed_is_clean_and_converges(seed):
    assert_clean_and_converged(ship_result(seed))


def test_the_nightly_gate_holds_a_sweep_to_exactly_the_pinned_seeds_in_its_range():
    entries = FRONTIER["default"]
    sweep = {
        "seeds": [0, 1300],
        "violations": [{"seed": 523, "invariant": "agreement-prefix", "repro": None}],
        "unconverged": [762, 1029],
    }
    assert mismatches(sweep, entries) == []
    assert mismatches({**sweep, "seeds": [0, 600], "unconverged": []}, entries) == []
    assert mismatches({**sweep, "unconverged": [5, 762, 1029]}, entries) == [
        "seed 5: unconverged, not pinned"
    ]
    assert mismatches({**sweep, "violations": []}, entries) == [
        "seed 523: pinned as agreement-prefix, not seen"
    ]
    moved = [{"seed": 523, "invariant": "conflict-order", "repro": None}]
    assert mismatches({**sweep, "violations": moved}, entries) == [
        "seed 523: conflict-order, not pinned",
        "seed 523: pinned as agreement-prefix, not seen",
    ]


def test_the_nightly_gate_judges_each_profile_against_its_own_entries(tmp_path, capsys):
    sweep = {
        "seeds": [0, 1300],
        "violations": [
            {"seed": 134, "invariant": "agreement-prefix", "repro": None},
            {"seed": 359, "invariant": "agreement-prefix", "repro": None},
        ],
        "unconverged": [147, 1029],
    }
    path = tmp_path / "ship.json"
    path.write_text(json.dumps(sweep))
    assert main(["--profile", "ship", str(path)]) == 0
    assert main([str(path)]) == 1
    assert "seed 134: agreement-prefix, not pinned" in capsys.readouterr().out


@pytest.mark.parametrize(
    "run",
    [lambda: explore_seed(2007).result, lambda: ship_result(2581)],
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
