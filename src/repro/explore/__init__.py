"""Schedule exploration and fault fuzzing for the new-architecture stack.

The package turns the deterministic simulator into an adversarial test
harness:

* :mod:`repro.explore.observers` — the observer panel: the invariant
  observers of :mod:`repro.checkers` hooked into live delivery paths,
  failing fast mid-run, and the per-actor stream logs;
* :mod:`repro.explore.scenario` — a run as data: JSON-round-trippable
  scenario configs (workload, link, knobs, fault plan, mutation);
* :mod:`repro.explore.runner` — deterministic execution of one scenario
  to quiescence, a post-hoc agreement check and a stable run fingerprint;
* :mod:`repro.explore.explorer` — seeded sweeps whose fault plans aim at
  protocol-sensitive instants harvested from a probe run;
* :mod:`repro.explore.shrink` — minimisation of failing schedules;
* :mod:`repro.explore.cli` — ``python -m repro explore``: sweeps, and
  ``--replay`` of a repro file or corpus entry with causal span tracing.
"""

from repro.explore.explorer import (
    adversarial_plan,
    explore_seed,
    load_repro,
    probe_instants,
    replay_repro,
    scenario_for_seed,
    sweep,
    write_repro,
)
from repro.explore.observers import InvariantViolation, ObserverPanel
from repro.explore.runner import RunResult, run_scenario
from repro.explore.scenario import ScenarioConfig, StackKnobs
from repro.explore.shrink import shrink_scenario

__all__ = [
    "InvariantViolation",
    "ObserverPanel",
    "RunResult",
    "ScenarioConfig",
    "StackKnobs",
    "adversarial_plan",
    "explore_seed",
    "load_repro",
    "probe_instants",
    "replay_repro",
    "run_scenario",
    "scenario_for_seed",
    "shrink_scenario",
    "sweep",
    "write_repro",
]
