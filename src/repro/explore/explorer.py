"""Seeded adversarial schedule exploration.

Each seed deterministically expands into one scenario (group size, mix,
link behaviour, stack knobs) under each of two :data:`PROFILES`, plus an
adversarial fault plan.  The plan is not random noise: a fault-free
**probe run** first harvests the *protocol-sensitive instants* from the
trace — consensus round boundaries, generic-broadcast stage edges and
conflict detections, view-change ctl ops, abcast epoch bumps — and
crashes, partitions and recoveries are aimed at those instants (with a
little jitter), because that is where ordering and agreement bugs live.

A violated invariant produces a **repro file**: seed, full scenario
config, fault plan (shrunk to a minimal reproduction), the violated
invariant and the run fingerprint — everything ``--replay`` needs to
re-execute the failure byte-identically.  So does a run that does not
converge, unshrunk, recorded as ``unconverged``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import NamedTuple

from repro.core.new_stack import StackConfig
from repro.explore.runner import RunResult, run_scenario
from repro.explore.scenario import ScenarioConfig
from repro.explore.shrink import shrink_scenario
from repro.monitoring.component import MonitoringPolicy
from repro.net.topology import LinkModel
from repro.sim.randomness import fork_rng
from repro.sim.world import World, make_pid
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
    LinkModel(delay_min=1.0, delay_jitter=1.0),
    LinkModel(delay_min=1.0, delay_jitter=4.0),
    LinkModel(delay_min=1.0, delay_jitter=4.0, drop_prob=0.05, dup_prob=0.02),
    LinkModel(delay_min=2.0, delay_jitter=8.0, drop_prob=0.02),
)


#: The stacks every seed runs under.  ``default`` draws five stack knobs;
#: ``ship`` takes the same draws, then runs ``StackConfig()`` but for the
#: two a deployment sets: the dissemination overlay and exclusion timeout.
PROFILES = ("default", "ship")


def scenario_for_seed(seed: int, profile: str = "default") -> ScenarioConfig:
    """Deterministically expand a seed into a (fault-free) scenario
    under ``profile`` (one of :data:`PROFILES`)."""
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}")
    rng = fork_rng(seed, "explore-scenario")
    config = ScenarioConfig(
        seed=seed,
        processes=rng.choice([3, 3, 4, 4, 5]),
        duration=rng.choice([1_200.0, 2_000.0]),
        rate=rng.choice([10.0, 20.0, 40.0]),
        relation=rng.choice(["rbcast_abcast", "bank"]),
        conflict_weight=rng.choice([0.1, 0.3, 0.6, 0.9]),
        link=rng.choice(LINK_PROFILES),
        stack=StackConfig(
            abcast_window=rng.choice([1, 1, 4]),
            relay_policy=rng.choice(["eager", "lazy"]),
            coalesce_delay=rng.choice([None, 0.5]),
            monitoring=MonitoringPolicy(exclusion_timeout=rng.choice([900.0, 2_000.0])),
            # Half flood (the default everywhere), half ring.  Four
            # entries, so every other draw of every seed keeps its value.
            dissemination=rng.choice(["flood", "flood", "ring", "ring"]),
        ),
    )
    if profile == "ship":
        drawn = config.stack
        shipping = StackConfig(dissemination=drawn.dissemination, monitoring=drawn.monitoring)
        config = replace(config, stack=shipping)
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
        length = rng.uniform(80.0, min(400.0, config.stack.monitoring.exclusion_timeout * 0.4))
        events.append(
            FaultEvent(at=at, kind="partition", target=[mainland, sorted(island)])
        )
        events.append(FaultEvent(at=at + length, kind="heal"))

    return FaultPlan(sorted(events, key=lambda e: (e.at, e.kind)))


# ----------------------------------------------------------------------
# Repro files
# ----------------------------------------------------------------------
#: 2 since the ``stack`` object holds every ``StackConfig`` field; 3
#: since ``config`` holds exactly the ``ScenarioConfig`` fields (no
#: budgets) and ``link`` every ``LinkModel`` field.
REPRO_VERSION = 3


def write_repro(path: str | Path, config: ScenarioConfig, result: RunResult) -> Path:
    """Persist a failing or unconverged schedule as a replayable JSON
    artifact."""
    if result.verdict is None:
        raise ValueError("refusing to write a repro file for a clean, converged run")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "version": REPRO_VERSION,
        "seed": config.seed,
        "invariant": result.verdict,
        "violation": result.violation,
        "fingerprint": result.fingerprint,
        "fd_at_end": result.stats.get("fd"),
        # What each live abcast waits on; an unconverged run's history gap.
        "blocked": result.stats.get("blocked"),
        "posthoc": result.stats.get("posthoc"),
        "config": config.to_json_obj(),
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_repro(path: str | Path) -> tuple[ScenarioConfig, dict]:
    """Load a repro file or a corpus entry; returns (config, expected outcome).

    A repro file expects its recorded invariant (``unconverged`` for a
    run that did not converge) and fingerprint.  A corpus entry
    (``tests/explore/corpus``, no ``version`` key) expects a clean,
    converged run: its expected invariant and fingerprint are None."""
    obj = json.loads(Path(path).read_text())
    if "version" in obj and obj["version"] != REPRO_VERSION:
        raise ValueError(f"unsupported repro version {obj['version']!r}")
    config = ScenarioConfig.from_json_obj(obj["config"])
    expected = {
        "invariant": obj.get("invariant"),
        "fingerprint": obj.get("fingerprint"),
        "violation": obj.get("violation"),
    }
    return config, expected


class Replay(NamedTuple):
    """A re-executed schedule and its verdict."""

    config: ScenarioConfig
    expected: dict
    result: RunResult
    world: World
    reproduced: bool


def replay_repro(path: str | Path) -> Replay:
    """Re-execute a repro file or corpus entry (see :func:`load_repro`)
    with span tracing on; ``reproduced`` is True iff the run's verdict is
    the expected one, and so is its fingerprint where the file records
    one.  Tracing does not change the run."""
    config, expected = load_repro(path)
    result, world = run_scenario(config, trace=True)
    recorded = expected["fingerprint"]
    reproduced = result.verdict == expected["invariant"] and recorded in (None, result.fingerprint)
    return Replay(config, expected, result, world, reproduced)


# ----------------------------------------------------------------------
# The sweep
# ----------------------------------------------------------------------
@dataclass
class SeedReport:
    """Everything one explored seed produced under one profile."""

    seed: int
    profile: str
    config: ScenarioConfig
    result: RunResult
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
        return [r for r in self.reports if r.result.verdict == "unconverged"]

    @property
    def ok(self) -> bool:
        return not self.failures


def explore_seed(seed: int, profile: str = "default") -> SeedReport:
    """Probe, arm, and run one seed's adversarial schedule under ``profile``."""
    base = scenario_for_seed(seed, profile)
    instants = probe_instants(base)
    config = base.with_plan(adversarial_plan(base, instants))
    result, _world = run_scenario(config)
    return SeedReport(seed=seed, profile=profile, config=config, result=result)


def reproduces_invariant(invariant: str):
    """Predicate factory for the shrinker: does a candidate config still
    violate the same invariant?"""

    def predicate(candidate: ScenarioConfig) -> bool:
        return run_scenario(candidate)[0].verdict == invariant

    return predicate


def sweep(
    seeds: range,
    out_dir: str | Path | None = None,
    shrink: bool = True,
    progress=None,
) -> SweepSummary:
    """Explore every seed under every profile; shrink failures and write
    the repro files of failing and unconverged runs."""
    summary = SweepSummary()
    for seed in seeds:
        for profile in PROFILES:
            report = explore_seed(seed, profile)
            config, result = report.config, report.result
            if report.failed and shrink:
                # The shrinker accepts only candidates that still fail so.
                predicate = reproduces_invariant(result.verdict)
                config, _attempts = shrink_scenario(config, predicate)
                result, _world = run_scenario(config)
            if out_dir is not None and result.verdict is not None:
                name = f"repro-seed{seed}-{profile}-{result.verdict}.json"
                report.repro_path = write_repro(Path(out_dir) / name, config, result)
            summary.reports.append(report)
            if progress is not None:
                progress(report)
    return summary
