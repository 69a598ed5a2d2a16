"""The explore frontier, pinned: every seed known to fail, as a strict xfail.

Each test runs one seed's adversarial scenario and asserts what a fixed
protocol must give — no violation, and a converged group.  Today each
fails as ROADMAP items 1 and 3 describe.  A fix turns its pin XPASS,
which fails the suite until the marker goes; a timing change that hides
a seed without a fix shows up the same way.

Two samplers: the default draw (``explore_seed``), and the same draw
forced to the shipping ``StackConfig()`` knobs — ``abcast_window`` 4,
``relay_policy`` lazy, ``coalesce_delay`` 1.0 — with every other draw of
the seed unchanged.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.explore.explorer import (
    adversarial_plan,
    explore_seed,
    probe_instants,
    scenario_for_seed,
)
from repro.explore.runner import run_scenario

AGREEMENT = "ROADMAP 1: a re-admitted incarnation holds a forgotten vote (agreement-prefix)"
UNCONVERGED = "ROADMAP 3: a head crash wedges delivery (the run does not converge)"


def pin(reason: str):
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)


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


@pytest.mark.parametrize(
    "seed",
    [
        pytest.param(523, marks=pin(AGREEMENT)),
        pytest.param(762, marks=pin(UNCONVERGED)),
        pytest.param(1029, marks=pin(UNCONVERGED)),
    ],
)
def test_default_sampler_seed_is_clean_and_converges(seed):
    assert_clean_and_converged(explore_seed(seed).result)


@pytest.mark.parametrize(
    "seed",
    [
        pytest.param(134, marks=pin(AGREEMENT)),
        pytest.param(359, marks=pin(AGREEMENT)),
        pytest.param(147, marks=pin(UNCONVERGED)),
    ],
)
def test_ship_profile_seed_is_clean_and_converges(seed):
    assert_clean_and_converged(ship_result(seed))
