"""Workload generators for tests, benchmarks and soak runs.

All generators are deterministic given a seed (they draw from a forked
RNG stream) and produce plain schedules — lists of (time, action)
descriptors — that drivers replay against any stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.net.wire import Blob
from repro.sim.randomness import fork_rng


@dataclass(frozen=True)
class BroadcastOp:
    """One broadcast to issue at ``at`` ms from ``sender``."""

    at: float
    sender_index: int
    payload: Any
    msg_class: str


@dataclass(frozen=True)
class WorkloadSpec:
    """A stochastic broadcast mix.

    ``class_weights`` maps conflict classes to relative frequencies;
    senders are drawn uniformly from ``senders`` indices.

    ``payload_bytes`` sets the modelled application payload size: each
    op carries a :class:`repro.net.wire.Blob` of that many bytes next to
    its index, so the wire-byte cost model charges realistic body sizes
    (the 64 B vs 4 KiB sweep) without allocating buffers.  ``None``
    keeps the legacy tiny ``("op", i)`` payload.  The knob draws no
    randomness — schedules are identical across payload sizes.
    """

    duration: float
    rate_per_second: float
    class_weights: dict[str, float]
    senders: int
    seed: int = 0
    payload_bytes: int | None = None

    def generate(self) -> list[BroadcastOp]:
        rng = fork_rng(self.seed, f"workload-{self.duration}-{self.rate_per_second}")
        classes = sorted(self.class_weights)
        weights = [self.class_weights[c] for c in classes]
        ops: list[BroadcastOp] = []
        mean_gap = 1_000.0 / self.rate_per_second
        t = 0.0
        index = 0
        while True:
            t += rng.expovariate(1.0 / mean_gap) if mean_gap > 0 else 0.0
            if t >= self.duration:
                break
            msg_class = rng.choices(classes, weights=weights)[0]
            if self.payload_bytes is None:
                payload: Any = ("op", index)
            else:
                payload = ("op", index, Blob(self.payload_bytes))
            ops.append(
                BroadcastOp(
                    at=t,
                    sender_index=rng.randrange(self.senders),
                    payload=payload,
                    msg_class=msg_class,
                )
            )
            index += 1
        return ops


def bank_mix(
    duration: float,
    rate_per_second: float,
    withdraw_fraction: float,
    senders: int,
    seed: int = 0,
) -> list[BroadcastOp]:
    """Section 4.2 deposit/withdrawal mix."""
    spec = WorkloadSpec(
        duration=duration,
        rate_per_second=rate_per_second,
        class_weights={
            "deposit": 1.0 - withdraw_fraction,
            "withdrawal": withdraw_fraction,
        },
        senders=senders,
        seed=seed,
    )
    ops = spec.generate()
    # Re-tag payloads as bank commands.
    rng = fork_rng(seed, "bank-amounts")
    out = []
    for op in ops:
        if op.msg_class == "deposit":
            command = ("deposit", rng.randrange(1, 20))
        else:
            command = ("withdraw", rng.randrange(1, 20))
        out.append(BroadcastOp(op.at, op.sender_index, command, op.msg_class))
    return out


def explore_mix(
    duration: float,
    rate_per_second: float,
    senders: int,
    class_weights: dict[str, float],
    seed: int = 0,
    payload_bytes: int | None = None,
) -> list[BroadcastOp]:
    """Mixed conflict/commutative traffic for generic-broadcast coverage.

    ``class_weights`` maps conflict classes of the scenario's relation
    (e.g. ``{"rbcast": 0.7, "abcast": 0.3}`` or the bank classes) to
    relative frequencies — the fuzzing harness sweeps the ratio so both
    the fast path and the stage-closure path are exercised.
    ``payload_bytes`` forwards to :attr:`WorkloadSpec.payload_bytes`.
    """
    spec = WorkloadSpec(
        duration=duration,
        rate_per_second=rate_per_second,
        class_weights=dict(class_weights),
        senders=senders,
        seed=seed,
        payload_bytes=payload_bytes,
    )
    return spec.generate()


@dataclass(frozen=True)
class FaultEvent:
    """A scheduled fault: crash / recover / partition / heal / cut / mend."""

    at: float
    kind: str                       # "crash" | "recover" | "partition" | "heal" | "cut" | "mend"
    target: Any = None              # pid; groups for partition; [src, dst] for cut/mend

    def to_json_obj(self) -> dict:
        obj: dict[str, Any] = {"at": self.at, "kind": self.kind}
        if self.target is not None:
            obj["target"] = self.target
        return obj

    @staticmethod
    def from_json_obj(obj: dict) -> "FaultEvent":
        kind = obj["kind"]
        target = obj.get("target")
        if kind in ("crash", "recover") and not isinstance(target, str):
            raise ValueError(f"{kind} event needs a pid target, got {target!r}")
        if kind == "partition":
            if not isinstance(target, list):
                raise ValueError(f"partition event needs group lists, got {target!r}")
            target = [list(group) for group in target]
        if kind in ("cut", "mend"):
            if not (isinstance(target, list) and len(target) == 2):
                raise ValueError(f"{kind} event needs a [src, dst] target, got {target!r}")
        return FaultEvent(at=float(obj["at"]), kind=kind, target=target)


@dataclass
class FaultPlan:
    """A deterministic fault schedule applied to a world."""

    events: list[FaultEvent] = field(default_factory=list)

    @staticmethod
    def minority_crashes(
        pids: list[str],
        duration: float,
        count: int,
        seed: int = 0,
        recover_after: float | None = None,
    ) -> "FaultPlan":
        """Crash up to a strict minority of ``pids`` at random times.

        With ``recover_after`` set, every crashed process recovers that
        many ms after its crash (crash-recovery model); otherwise
        crashes are permanent (crash-stop).
        """
        if count > (len(pids) - 1) // 2:
            raise ValueError("cannot crash a majority and stay live")
        rng = fork_rng(seed, "faults")
        victims = rng.sample(sorted(pids), count)
        events = []
        for victim in victims:
            at = rng.uniform(duration * 0.2, duration * 0.8)
            events.append(FaultEvent(at=at, kind="crash", target=victim))
            if recover_after is not None:
                events.append(
                    FaultEvent(at=at + recover_after, kind="recover", target=victim)
                )
        return FaultPlan(sorted(events, key=lambda e: e.at))

    @staticmethod
    def crash_recover_cycles(
        pids: list[str],
        duration: float,
        cycles: int,
        downtime: float,
        seed: int = 0,
        max_concurrent_down: int | None = None,
    ) -> "FaultPlan":
        """Random flapping: ``cycles`` crash→recover pairs across ``pids``.

        At most a strict minority (or ``max_concurrent_down``) of
        processes is down at any instant, so the group keeps a quorum
        throughout.  Deterministic for a given seed.
        """
        rng = fork_rng(seed, "flap")
        limit = max_concurrent_down
        if limit is None:
            limit = max(1, (len(pids) - 1) // 2)
        events: list[FaultEvent] = []
        down_until: dict[str, float] = {}
        for _ in range(cycles):
            at = rng.uniform(duration * 0.1, duration * 0.9)
            candidates = [p for p in sorted(pids) if down_until.get(p, -1.0) < at]
            concurrent = sum(1 for t in down_until.values() if t > at)
            if not candidates or concurrent >= limit:
                continue
            victim = rng.choice(candidates)
            end = at + downtime
            down_until[victim] = end
            events.append(FaultEvent(at=at, kind="crash", target=victim))
            events.append(FaultEvent(at=end, kind="recover", target=victim))
        return FaultPlan(sorted(events, key=lambda e: e.at))

    @staticmethod
    def rolling_restart(
        pids: list[str], start: float, downtime: float, gap: float
    ) -> "FaultPlan":
        """Crash and recover every process in turn, one at a time.

        Process ``i`` crashes at ``start + i * (downtime + gap)`` and
        recovers ``downtime`` ms later — the classic rolling-upgrade
        schedule (never more than one process down)."""
        events: list[FaultEvent] = []
        t = start
        for pid in sorted(pids):
            events.append(FaultEvent(at=t, kind="crash", target=pid))
            events.append(FaultEvent(at=t + downtime, kind="recover", target=pid))
            t += downtime + gap
        return FaultPlan(events)

    @staticmethod
    def transient_partition(
        groups: list[list[str]], start: float, length: float
    ) -> "FaultPlan":
        return FaultPlan(
            [
                FaultEvent(at=start, kind="partition", target=groups),
                FaultEvent(at=start + length, kind="heal"),
            ]
        )

    def to_json_obj(self) -> list[dict]:
        """Plain-data form of the plan, stable for repro files and diffs."""
        return [event.to_json_obj() for event in self.events]

    @staticmethod
    def from_json_obj(obj: list[dict]) -> "FaultPlan":
        return FaultPlan([FaultEvent.from_json_obj(e) for e in obj])

    def duration(self) -> float:
        """Latest event time (0.0 for an empty plan)."""
        return max((e.at for e in self.events), default=0.0)

    def apply(self, world) -> None:
        """Schedule every event on the world's clock."""
        for event in self.events:
            if event.kind == "crash":
                world.crash(event.target, at=event.at)
            elif event.kind == "recover":
                world.recover(event.target, at=event.at)
            elif event.kind == "partition":
                world.split(event.target, at=event.at)
            elif event.kind == "heal":
                world.heal(at=event.at)
            elif event.kind == "cut":
                world.cut(*event.target, at=event.at)
            elif event.kind == "mend":
                world.mend(*event.target, at=event.at)
            else:
                raise ValueError(f"unknown fault kind {event.kind!r}")

    def crashed_pids(self) -> set[str]:
        return {e.target for e in self.events if e.kind == "crash"}

    def recovered_pids(self) -> set[str]:
        return {e.target for e in self.events if e.kind == "recover"}

    def permanently_crashed_pids(self) -> set[str]:
        """Pids whose last crash is never followed by a recover."""
        last: dict[str, str] = {}
        for event in sorted(self.events, key=lambda e: e.at):
            if event.kind in ("crash", "recover"):
                last[event.target] = event.kind
        return {pid for pid, kind in last.items() if kind == "crash"}
