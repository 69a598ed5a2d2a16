"""Workload definitions and open-loop schedules of the perf observatory.

Stdlib only: the parent process reads the definitions without importing
the program under test.  The sizes are frozen — later issues cite the
workload names and compare against numbers taken at exactly these
rates, op counts and ladders (see README.md for why each exists).
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, replace

#: The benched stack configuration, constructed explicitly by every
#: workload (``StackConfig()``'s own defaults are the unbenched
#: eager/uncoalesced ones) and echoed into the result.
STACK_CONFIG = {
    "abcast_window": 4,
    "abcast_max_batch": 4,
    "relay_policy": "lazy",
    "coalesce_delay": 1.0,
    "max_segment_batch": 8,
}

#: Injected link delay, uniform 3–11 ms: ``LinkModel(3.0, 8.0)``.
LINK_MIN_MS = 3.0
LINK_JITTER_MS = 8.0

#: A rung passes with at most this share of its ops still undelivered
#: when the window closes (a backlog that grows trips it).
BACKLOG_LIMIT = 0.02


ABCAST = "abcast"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    members: int
    payload_bytes: int
    #: (message class, share of ops); shares sum to 1.
    classes: tuple[tuple[str, float], ...]
    #: ``"rbcast_abcast"`` or ``"bank"`` (resolved in harness.py).
    relation: str
    #: Reference run: a fixed rate below the knee and a fixed op count
    #: large enough that p99 has at least ten samples beyond it.
    rate: float
    ops: int
    #: Ascending offered rates; empty = no ladder.
    ladder: tuple[float, ...]
    limit_ms: float
    #: Simulated length of one rung.  It must dwarf the healthy latency,
    #: or ops merely in flight when the window closes (rate × latency,
    #: whatever the rate) eat the backlog allowance.
    rung_ms: float = 10_000.0
    dissemination: str = "flood"
    bytes_per_ms: float | None = None
    #: Leading share of the reference schedule that the traced run
    #: replays (cProfile costs ~3.5x, so it gets a short schedule).
    traced_share: float = 0.25
    #: Fault plan, absolute simulated ms; None = fault-free.
    victim: str | None = None
    crash_ms: float | None = None
    recover_ms: float | None = None

    def quick(self) -> "Workload":
        """The smoke-run cut: 1/20 of the ops, two short rungs.  A fault
        plan fixes when things happen, so there the timeline shrinks 4x
        (exclusion, 2 s after the crash, still precedes the recovery)
        and the arrivals thin out 5x."""
        cut = replace(self, ops=self.ops // 20, ladder=self.ladder[:2], rung_ms=self.rung_ms / 5)
        if self.victim is None:
            return cut
        return replace(
            cut, rate=self.rate / 5, crash_ms=self.crash_ms / 4, recover_ms=self.recover_ms / 4
        )

    def stack_config(self) -> dict:
        return {**STACK_CONFIG, "dissemination": self.dissemination}

    def describe(self) -> dict:
        return {
            **asdict(self),
            "stack_config": self.stack_config(),
            "link": {
                "min_ms": LINK_MIN_MS,
                "jitter_ms": LINK_JITTER_MS,
                "bytes_per_ms": self.bytes_per_ms,
            },
        }


WORKLOADS = (
    Workload(
        name="order_small",
        why="n=3, 64 B, every pair conflicts: ordering (abcast, consensus, rc) does the work",
        members=3,
        payload_bytes=64,
        classes=((ABCAST, 1.0),),
        relation="rbcast_abcast",
        rate=40.0,
        ops=3000,
        ladder=(25.0, 32.0, 40.0, 50.0, 63.0, 80.0, 100.0, 125.0),
        limit_ms=500.0,
    ),
    Workload(
        name="bank_commute",
        why="n=3, 64 B, 95% commuting deposits: the gbcast ack fast path works, consensus idles",
        members=3,
        payload_bytes=64,
        classes=(("deposit", 0.95), ("withdrawal", 0.05)),
        relation="bank",
        rate=100.0,
        ops=8000,
        ladder=(100.0, 125.0, 160.0, 200.0, 250.0, 315.0, 400.0, 500.0),
        limit_ms=500.0,
    ),
    Workload(
        name="bulk_ring",
        why="n=5, 4 KiB over the ring overlay at 2 MB/s links: dissemination does the work",
        members=5,
        payload_bytes=4096,
        classes=((ABCAST, 1.0),),
        relation="rbcast_abcast",
        rate=15.0,
        ops=1200,
        ladder=(16.0, 20.0, 25.0, 32.0, 40.0, 50.0),
        limit_ms=1000.0,
        # Healthy p50 is ~125 ms here: a 10 s window leaves 1.25 % of
        # the ops in flight at its close, on the edge of the allowance.
        rung_ms=20_000.0,
        dissemination="ring",
        bytes_per_ms=2000.0,
    ),
    Workload(
        name="failover",
        why="n=5, 64 B, the round-0 coordinator crashes at 10 s and recovers at 20 s under load",
        members=5,
        payload_bytes=64,
        classes=((ABCAST, 1.0),),
        relation="rbcast_abcast",
        rate=30.0,
        ops=1080,
        ladder=(),
        limit_ms=500.0,
        # The fault plan pins the timeline: crash, exclusion (~12 s),
        # recovery and rejoin (~20 s) all sit in the first two thirds.
        traced_share=0.67,
        victim="p00",
        crash_ms=10_000.0,
        recover_ms=20_000.0,
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}

#: One scheduled operation: (due time in simulated ms, index of the
#: member it is addressed to, message class).
Op = tuple[float, int, str]


def _rng(workload: Workload, seed: int, rate: float) -> random.Random:
    # A str seed hashes through sha512, not through PYTHONHASHSEED.
    return random.Random(f"{workload.name}/{seed}/{rate}")


def _draw_class(workload: Workload, rng: random.Random) -> str:
    if len(workload.classes) == 1:
        return workload.classes[0][0]
    point = rng.random()
    for cls, share in workload.classes:
        point -= share
        if point < 0:
            return cls
    return workload.classes[-1][0]


def poisson_schedule(
    workload: Workload,
    seed: int,
    rate: float,
    ops: int | None = None,
    window_ms: float | None = None,
) -> list[Op]:
    """Seeded Poisson arrivals at ``rate`` ops/s; op *i* goes to member
    ``i mod n``.  Bounded by an op count or by a time window."""
    rng = _rng(workload, seed, rate)
    per_ms = rate / 1000.0
    schedule: list[Op] = []
    due = 0.0
    while ops is None or len(schedule) < ops:
        due += rng.expovariate(per_ms)
        if window_ms is not None and due > window_ms:
            break
        schedule.append((due, len(schedule) % workload.members, _draw_class(workload, rng)))
    return schedule


def reference_schedule(workload: Workload, seed: int) -> list[Op]:
    return poisson_schedule(workload, seed, workload.rate, ops=workload.ops)


def traced_schedule(workload: Workload, seed: int) -> list[Op]:
    schedule = reference_schedule(workload, seed)
    return schedule[: max(int(len(schedule) * workload.traced_share), 1)]
