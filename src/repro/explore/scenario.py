"""Scenario configuration: everything one exploration run needs, as data.

A :class:`ScenarioConfig` fully determines a run — seed, group size,
workload mix, link behaviour, stack knobs, fault plan, budgets, optional
injected mutation — and round-trips through JSON, which is what makes
failing schedules shrinkable, storable in a corpus, and replayable
byte-identically (``python -m repro explore --replay FILE``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Any

from repro.core.new_stack import StackConfig
from repro.gbcast.conflict import (
    ABCAST_CLASS,
    DEPOSIT,
    RBCAST_ABCAST,
    RBCAST_CLASS,
    WITHDRAWAL,
    ConflictRelation,
    bank_relation,
)
from repro.monitoring.component import MonitoringPolicy
from repro.workload.generators import FaultPlan

#: Named conflict relations a scenario can run under, with their
#: (conflicting class, commuting class) pair for the workload mix.
RELATIONS: dict[str, tuple[ConflictRelation, str, str]] = {
    "rbcast_abcast": (RBCAST_ABCAST, ABCAST_CLASS, RBCAST_CLASS),
    "bank": (bank_relation(), WITHDRAWAL, DEPOSIT),
}


@dataclass(frozen=True)
class LinkConfig:
    """Stochastic link behaviour of the scenario's network."""

    delay_min: float = 1.0
    delay_jitter: float = 1.0
    drop_prob: float = 0.0
    dup_prob: float = 0.0

    def to_json_obj(self) -> dict:
        return {
            "delay_min": self.delay_min,
            "delay_jitter": self.delay_jitter,
            "drop_prob": self.drop_prob,
            "dup_prob": self.dup_prob,
        }

    @staticmethod
    def from_json_obj(obj: dict) -> "LinkConfig":
        return LinkConfig(**obj)


_STACK_DEFAULTS = StackConfig()


@dataclass(frozen=True)
class StackKnobs:
    """The subset of :class:`repro.core.new_stack.StackConfig` the
    explorer sweeps (plus the monitoring exclusion timeout), with the
    same defaults; everything else stays at ``StackConfig``'s own."""

    abcast_window: int = _STACK_DEFAULTS.abcast_window
    exclusion_timeout: float = _STACK_DEFAULTS.monitoring.exclusion_timeout
    relay_policy: str = _STACK_DEFAULTS.relay_policy
    coalesce_delay: float | None = _STACK_DEFAULTS.coalesce_delay
    dissemination: str = _STACK_DEFAULTS.dissemination

    def stack_config(self) -> StackConfig:
        knobs = asdict(self)
        exclusion_timeout = knobs.pop("exclusion_timeout")
        return StackConfig(
            **knobs, monitoring=MonitoringPolicy(exclusion_timeout=exclusion_timeout)
        )

    def to_json_obj(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_json_obj(obj: dict) -> "StackKnobs":
        return StackKnobs(**obj)


@dataclass(frozen=True)
class ScenarioConfig:
    """One deterministic exploration scenario."""

    seed: int = 0
    processes: int = 3
    duration: float = 2_000.0           # workload window, simulated ms
    rate: float = 20.0                  # broadcasts per simulated second
    relation: str = "rbcast_abcast"
    conflict_weight: float = 0.3        # weight of the conflicting class
    payload_bytes: int | None = None    # modelled app payload size (Blob)
    link: LinkConfig = field(default_factory=LinkConfig)
    stack: StackKnobs = field(default_factory=StackKnobs)
    plan: FaultPlan = field(default_factory=FaultPlan)
    budget_events: int = 200_000
    quiesce_timeout: float = 60_000.0   # max extra simulated ms to converge
    quiet_window: float = 400.0         # no-progress window ending the run
    mutation: str | None = None         # deliberate bug injection (tests)

    def __post_init__(self) -> None:
        if self.processes < 2:
            raise ValueError("a scenario needs at least 2 processes")
        if self.relation not in RELATIONS:
            raise ValueError(f"unknown relation {self.relation!r}")
        if not 0.0 <= self.conflict_weight <= 1.0:
            raise ValueError("conflict_weight must be in [0, 1]")

    # ------------------------------------------------------------------
    # Derived pieces
    # ------------------------------------------------------------------
    def conflict_relation(self) -> ConflictRelation:
        return RELATIONS[self.relation][0]

    def class_weights(self) -> dict[str, float]:
        _, conflicting, commuting = RELATIONS[self.relation]
        return {
            conflicting: self.conflict_weight,
            commuting: 1.0 - self.conflict_weight,
        }

    def fifo_checkable(self) -> bool:
        """Whether per-sender-per-class FIFO is checkable on this run.

        Sender order is **not** an invariant of generic broadcast: the
        underlying reliable broadcast delivers on *first receipt over any
        path*.  Under the **eager** relay policy every path carries a
        prefix of the sender's same-class stream in order (the direct
        channel is per-peer FIFO, and relayers forward their own
        first-receipt merge, complete and in order), so the merge stays
        FIFO through any loss, duplication, partition or crash — given
        that a rejoiner acks the pending set its state snapshot hands
        over, in id order, before anything that arrives later (corpus
        entry ``rejoiner-inherits-unacked-pending``).  A
        **lazy-relay** suspicion-edge repair instead re-injects only the
        *retained* (not-yet-stable) suffix of a sender's stream — a
        repaired later message can legally overtake an earlier one, and a
        false suspicion can trigger that with no fault plan at all.
        Cross-class order is never asserted (the observer keys streams
        by class): commuting messages deliberately bypass the staging
        machinery that conflicting messages wait on.

        The ring overlay shares the lazy caveat: its suspicion-edge
        repair re-injects the retained suffix, so a false
        suspicion can reorder with no fault plan at all — FIFO is only
        checkable under classic flood dissemination.
        """
        return self.stack.relay_policy == "eager" and self.stack.dissemination == "flood"

    def incarnation_checkable(self) -> bool:
        """Whether incarnation-monotonicity is checkable on this run.

        A message broadcast by a sender's old incarnation just before
        its crash may legally be delivered *after* messages of the
        recovered incarnation: uniform agreement requires every member
        to deliver the straggler whenever any member did, and
        re-admission installs no view barrier to flush it (Section 4.3
        deliberately decouples recovery from view changes).  The
        monotonicity check is therefore asserted only when stragglers
        cannot outlive the crash-to-recover gap: no recoveries at all,
        or prompt delivery paths — eager relay on a loss-free,
        duplicate-free link with no partitions buffering traffic.  What
        it then catches is real fencing bugs: a transport accepting a
        dead incarnation's retransmissions as fresh traffic.
        """
        if not self.plan.recovered_pids():
            return True
        return (
            self.stack.relay_policy == "eager"
            and self.stack.dissemination == "flood"
            and self.link.drop_prob == 0.0
            and self.link.dup_prob == 0.0
            and not any(e.kind == "partition" for e in self.plan.events)
        )

    def with_plan(self, plan: FaultPlan) -> "ScenarioConfig":
        return replace(self, plan=plan)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_json_obj(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "processes": self.processes,
            "duration": self.duration,
            "rate": self.rate,
            "relation": self.relation,
            "conflict_weight": self.conflict_weight,
            "payload_bytes": self.payload_bytes,
            "link": self.link.to_json_obj(),
            "stack": self.stack.to_json_obj(),
            "plan": self.plan.to_json_obj(),
            "budget_events": self.budget_events,
            "quiesce_timeout": self.quiesce_timeout,
            "quiet_window": self.quiet_window,
            "mutation": self.mutation,
        }

    @staticmethod
    def from_json_obj(obj: dict[str, Any]) -> "ScenarioConfig":
        return ScenarioConfig(
            seed=int(obj["seed"]),
            processes=int(obj["processes"]),
            duration=float(obj["duration"]),
            rate=float(obj["rate"]),
            relation=obj.get("relation", "rbcast_abcast"),
            conflict_weight=float(obj.get("conflict_weight", 0.3)),
            payload_bytes=(
                None
                if obj.get("payload_bytes") is None
                else int(obj["payload_bytes"])
            ),
            link=LinkConfig.from_json_obj(obj.get("link", {})),
            stack=StackKnobs.from_json_obj(obj.get("stack", {})),
            plan=FaultPlan.from_json_obj(obj.get("plan", [])),
            budget_events=int(obj.get("budget_events", 200_000)),
            quiesce_timeout=float(obj.get("quiesce_timeout", 60_000.0)),
            quiet_window=float(obj.get("quiet_window", 400.0)),
            mutation=obj.get("mutation"),
        )
