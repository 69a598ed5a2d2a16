"""Seeded adversarial schedule exploration.

Each seed deterministically expands into one scenario (group size, mix,
link behaviour, stack knobs) plus an adversarial fault plan.  The plan is
not random noise: a fault-free **probe run** first harvests the
*protocol-sensitive instants* from the trace — consensus round
boundaries, generic-broadcast stage edges and conflict detections,
view-change ctl ops, abcast epoch bumps — and crashes, partitions and
recoveries are aimed at those instants (with a little jitter), because
that is where ordering and agreement bugs live.

A violated invariant produces a **repro file**: seed, full scenario
config, fault plan (shrunk to a minimal reproduction), the violated
invariant and the run fingerprint — everything ``--replay`` needs to
re-execute the failure byte-identically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.explore.runner import RunResult, run_scenario
from repro.explore.scenario import LinkConfig, ScenarioConfig, StackKnobs
from repro.explore.shrink import shrink_scenario
from repro.sim.randomness import fork_rng
from repro.sim.world import make_pid
from repro.workload.generators import FaultEvent, FaultPlan

#: (component, event) trace pairs marking protocol-sensitive instants.
SENSITIVE_EVENTS = (
    ("consensus", "propose"),
    ("consensus", "decide"),
    ("gbcast", "endstage"),
    ("gbcast", "conflict"),
    ("gm", "new_view"),
    ("gm", "readmit"),
    ("abcast", "epoch_bump"),
    ("monitoring", "exclude"),
)

#: Link profiles the explorer sweeps: clean LAN, jittery, lossy with
#: duplication, and skewed (slow asymmetric-feeling delays).
LINK_PROFILES = (
    LinkConfig(delay_min=1.0, delay_jitter=1.0),
    LinkConfig(delay_min=1.0, delay_jitter=4.0),
    LinkConfig(delay_min=1.0, delay_jitter=4.0, drop_prob=0.05, dup_prob=0.02),
    LinkConfig(delay_min=2.0, delay_jitter=8.0, drop_prob=0.02),
)


def scenario_for_seed(seed: int, budget_events: int = 200_000) -> ScenarioConfig:
    """Deterministically expand a seed into a (fault-free) scenario."""
    rng = fork_rng(seed, "explore-scenario")
    config = ScenarioConfig(
        seed=seed,
        processes=rng.choice([3, 3, 4, 4, 5]),
        duration=rng.choice([1_200.0, 2_000.0]),
        rate=rng.choice([10.0, 20.0, 40.0]),
        relation=rng.choice(["rbcast_abcast", "bank"]),
        conflict_weight=rng.choice([0.1, 0.3, 0.6, 0.9]),
        link=rng.choice(LINK_PROFILES),
        stack=StackKnobs(
            abcast_window=rng.choice([1, 1, 4]),
            relay_policy=rng.choice(["eager", "lazy"]),
            coalesce_delay=rng.choice([None, 0.5]),
            exclusion_timeout=rng.choice([900.0, 2_000.0]),
            # Half flood (the default everywhere), half ring.  Four
            # entries, so every other draw of every seed keeps its value.
            dissemination=rng.choice(["flood", "flood", "ring", "ring"]),
        ),
        budget_events=budget_events,
    )
    if config.stack.dissemination == "flood":
        return config
    # Only bodies above rbcast's ``DIRECT_MAX_BYTES`` take the overlay.
    # A stream of its own: every other draw of every seed keeps its value.
    payload_bytes = fork_rng(seed, "explore-payload").choice([None, 4096, 4096])
    return replace(config, payload_bytes=payload_bytes)


def probe_instants(config: ScenarioConfig) -> list[float]:
    """Fault-free run of ``config``; returns the sorted distinct times of
    protocol-sensitive trace events inside the workload window."""
    probe = replace(config, plan=FaultPlan(), mutation=None)
    _result, world = run_scenario(probe, trace=True)
    instants: set[float] = set()
    for component, event in SENSITIVE_EVENTS:
        for record in world.trace.select(component=component, event=event):
            if 1.0 <= record.time <= config.duration:
                instants.add(record.time)
    return sorted(instants)


def adversarial_plan(config: ScenarioConfig, instants: list[float]) -> FaultPlan:
    """Aim crashes/partitions at sensitive instants, deterministically.

    Keeps the group live: at most a strict minority is ever crashed, and
    every partition heals well inside the exclusion timeout.
    """
    rng = fork_rng(config.seed, "explore-plan")
    pids = [make_pid(i) for i in range(config.processes)]
    if not instants:
        instants = [config.duration * f for f in (0.25, 0.5, 0.75)]
    events: list[FaultEvent] = []

    minority = max(1, (config.processes - 1) // 2)
    crash_count = rng.choice([0, 1, 1, min(2, minority)])
    victims = rng.sample(pids, crash_count)
    for victim in victims:
        at = max(1.0, rng.choice(instants) + rng.uniform(-3.0, 3.0))
        events.append(FaultEvent(at=at, kind="crash", target=victim))
        recover_after = rng.choice([None, 200.0, 500.0, 900.0])
        if recover_after is not None:
            events.append(
                FaultEvent(at=at + recover_after, kind="recover", target=victim)
            )

    if config.processes >= 3 and rng.random() < 0.4:
        at = max(1.0, rng.choice(instants) + rng.uniform(-3.0, 3.0))
        cut = rng.randrange(1, minority + 1)
        island = rng.sample(pids, cut)
        mainland = [p for p in pids if p not in island]
        length = rng.uniform(80.0, min(400.0, config.stack.exclusion_timeout * 0.4))
        events.append(
            FaultEvent(at=at, kind="partition", target=[mainland, sorted(island)])
        )
        events.append(FaultEvent(at=at + length, kind="heal"))

    return FaultPlan(sorted(events, key=lambda e: (e.at, e.kind)))


# ----------------------------------------------------------------------
# Repro files
# ----------------------------------------------------------------------
REPRO_VERSION = 1


def write_repro(path: str | Path, config: ScenarioConfig, result: RunResult) -> Path:
    """Persist a failing schedule as a replayable JSON artifact."""
    if result.violation is None:
        raise ValueError("refusing to write a repro file for a clean run")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "version": REPRO_VERSION,
        "seed": config.seed,
        "invariant": result.violation["invariant"],
        "violation": result.violation,
        "fingerprint": result.fingerprint,
        "fd_at_end": result.stats.get("fd"),
        "config": config.to_json_obj(),
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_repro(path: str | Path) -> tuple[ScenarioConfig, dict]:
    """Load a repro file; returns (config, expected-outcome dict)."""
    obj = json.loads(Path(path).read_text())
    if obj.get("version") != REPRO_VERSION:
        raise ValueError(f"unsupported repro version {obj.get('version')!r}")
    config = ScenarioConfig.from_json_obj(obj["config"])
    expected = {
        "invariant": obj.get("invariant"),
        "fingerprint": obj.get("fingerprint"),
        "violation": obj.get("violation"),
    }
    return config, expected


def replay_repro(path: str | Path) -> tuple[bool, RunResult, dict]:
    """Re-execute a repro file; True iff the recorded failure reproduces
    byte-identically (same invariant, same fingerprint)."""
    config, expected = load_repro(path)
    result, _world = run_scenario(config)
    actual_invariant = result.violation["invariant"] if result.violation else None
    matches = (
        actual_invariant == expected["invariant"]
        and result.fingerprint == expected["fingerprint"]
    )
    return matches, result, expected


# ----------------------------------------------------------------------
# The sweep
# ----------------------------------------------------------------------
@dataclass
class SeedReport:
    """Everything one explored seed produced."""

    seed: int
    config: ScenarioConfig
    result: RunResult
    shrunk_config: ScenarioConfig | None = None
    shrink_attempts: int = 0
    repro_path: Path | None = None

    @property
    def failed(self) -> bool:
        return self.result.violation is not None


@dataclass
class SweepSummary:
    """Aggregate outcome of a seed sweep."""

    reports: list[SeedReport] = field(default_factory=list)

    @property
    def failures(self) -> list[SeedReport]:
        return [r for r in self.reports if r.failed]

    @property
    def unconverged(self) -> list[SeedReport]:
        return [r for r in self.reports if not r.failed and not r.result.converged]

    @property
    def ok(self) -> bool:
        return not self.failures


def explore_seed(seed: int, budget_events: int = 200_000) -> SeedReport:
    """Probe, arm, and run one seed's adversarial schedule."""
    base = scenario_for_seed(seed, budget_events=budget_events)
    instants = probe_instants(base)
    config = base.with_plan(adversarial_plan(base, instants))
    result, _world = run_scenario(config)
    return SeedReport(seed=seed, config=config, result=result)


def reproduces_invariant(invariant: str):
    """Predicate factory for the shrinker: does a candidate config still
    violate the same invariant?"""

    def predicate(candidate: ScenarioConfig) -> bool:
        result, _world = run_scenario(candidate)
        return (
            result.violation is not None
            and result.violation["invariant"] == invariant
        )

    return predicate


def sweep(
    seeds: range,
    budget_events: int = 200_000,
    out_dir: str | Path | None = None,
    shrink: bool = True,
    max_shrink_attempts: int = 80,
    progress=None,
) -> SweepSummary:
    """Explore every seed; shrink failures and write their repro files."""
    summary = SweepSummary()
    for seed in seeds:
        report = explore_seed(seed, budget_events=budget_events)
        if report.failed:
            invariant = report.result.violation["invariant"]
            final_config, final_result = report.config, report.result
            if shrink:
                predicate = reproduces_invariant(invariant)
                shrunk, attempts = shrink_scenario(
                    report.config, predicate, max_attempts=max_shrink_attempts
                )
                report.shrunk_config = shrunk
                report.shrink_attempts = attempts
                final_result, _world = run_scenario(shrunk)
                if (
                    final_result.violation is not None
                    and final_result.violation["invariant"] == invariant
                ):
                    final_config = shrunk
                else:  # pragma: no cover - shrinker always re-validates
                    final_result = report.result
            if out_dir is not None:
                name = f"repro-seed{seed}-{invariant}.json"
                report.repro_path = write_repro(
                    Path(out_dir) / name, final_config, final_result
                )
        summary.reports.append(report)
        if progress is not None:
            progress(report)
    return summary
