"""Shared helpers for the benchmark harness.

Every bench module reproduces one artefact of the paper (a figure, a
conflict table, or a Section 4 claim) — or one mechanism of this
reproduction — as *scenarios*: functions named ``scenario_<name>`` that
measure once and return a :class:`Result`.  Since the paper reports
*arguments* rather than absolute numbers, a scenario prints the rows that
support (or would refute) its claim and states the claim's *shape* — who
wins, and roughly by how much — as named checks, each in one statement
(:meth:`Result.check`).  ``scenarios.SCENARIOS`` is the registry;
``test_scenarios.py`` and ``run_all.py`` render it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Any

from repro.core.composed import ComposedNewArchitecture
from repro.core.new_stack import NewArchitectureStack
from repro.net.topology import LAN
from repro.sim import critpath
from repro.sim.world import World, build_group
from repro.traditional import EnsembleStack, IsisStack, PhoenixStack, RMPStack, TotemStack


def fmt(value: Any) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return "-"
        return f"{value:.2f}"
    return str(value)


def fmt_table(headers: list[str], rows: list[list[Any]]) -> str:
    cells = [[fmt(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    def line(parts, pad=" "):
        return " | ".join(p.ljust(w, pad) for p, w in zip(parts, widths))
    out = [line(headers), line(["-" * w for w in widths], pad="-")]
    out += [line(r) for r in cells]
    return "\n".join(out)


# ----------------------------------------------------------------------
# Claims and results
# ----------------------------------------------------------------------
OPS = {
    "<": operator.lt,
    "<=": operator.le,
    "==": operator.eq,
    ">=": operator.ge,
    ">": operator.gt,
}


def _show(value: Any) -> str:
    return f"{value:g}" if isinstance(value, float) else str(value)


def _missing(value: Any) -> bool:
    return value is None or (isinstance(value, float) and math.isnan(value))


@dataclass(frozen=True)
class Check:
    """A claim's verdict and the sentence that says why: the measured
    value, the comparison and the bound.  Truthy iff the claim holds."""

    holds: bool
    detail: str

    def __bool__(self) -> bool:
        return self.holds

    def __and__(self, other: Check) -> Check:
        return Check(self.holds and other.holds, f"{self.detail}; {other.detail}")


def claim(what: str, value: Any, op: str, bound: Any) -> Check:
    """``value op bound`` as a :class:`Check`, in one statement.

    ``value`` may be a mapping (label → measured value): every entry must
    hold, against ``bound`` or — when ``bound`` is a mapping too — against
    its own entry.  A missing measurement (``None`` or NaN, on either
    side) makes a false check that says so; it never raises.
    """
    if isinstance(value, dict):
        parts = [
            claim(str(key), v, op, bound[key] if isinstance(bound, dict) else bound)
            for key, v in value.items()
        ]
        return Check(all(parts), f"{what}: " + "; ".join(p.detail for p in parts))
    sentence = f"{what} {_show(value)} {op} {_show(bound)}"
    if _missing(value) or _missing(bound):
        return Check(False, f"{sentence}: missing")
    return Check(bool(OPS[op](value, bound)), sentence)


@dataclass
class Table:
    """One printed artefact.  A table without headers is a block of
    text: its note is printed as it stands."""

    title: str
    headers: list[str]
    rows: list[list[Any]]
    note: str = ""

    def __str__(self) -> str:
        rule = "=" * 74
        if not self.headers:
            return f"\n{rule}\n  {self.title}\n{rule}\n{self.note}"
        note = f"\n\n  {self.note}" if self.note else ""
        return f"\n{rule}\n  {self.title}\n{rule}\n{fmt_table(self.headers, self.rows)}{note}"


@dataclass
class Result:
    """What one scenario measured, printed and claimed.

    ``shape`` / ``shape_detail`` hold every named check (verdict and
    sentence); ``traced`` the ``(label, world)`` pairs whose span trees
    ``run_all.py --trace-dir`` exports; ``section`` names the scenario's
    place in ``BENCH_abgb.json`` (``None`` for figure-only scenarios).
    """

    section: str | None = None
    metrics: dict = field(default_factory=dict)
    shape: dict[str, bool] = field(default_factory=dict)
    shape_detail: dict[str, str] = field(default_factory=dict)
    tables: list[Table] = field(default_factory=list)
    traced: list[tuple[str, World]] = field(default_factory=list)

    def add(self, name: str, check: Check) -> None:
        self.shape[name] = check.holds
        self.shape_detail[name] = check.detail

    def check(self, name: str, what: str, value: Any, op: str, bound: Any) -> None:
        self.add(name, claim(what, value, op, bound))

    def table(self, title: str, headers: list[str], rows: list[list[Any]], note: str = "") -> None:
        self.tables.append(Table(title, headers, rows, note))


# ----------------------------------------------------------------------
# The group driver
# ----------------------------------------------------------------------
def _app(log) -> list[Any]:
    """Application payloads of a delivery log (internal classes start
    with ``_``)."""
    return [m.payload for m in log if not m.msg_class.startswith("_")]


def _abcast_payload(stack, payload, _msg_class) -> None:
    stack.abcast_payload(payload)


def _delivered(stack) -> list[Any]:
    return stack.delivered_payloads()


#: The traditional stacks: each offers the one application surface
#: (``abcast_payload``, ``delivered_payloads``), so all are driven alike.
TRADITIONAL = {
    "isis": IsisStack,
    "phoenix": PhoenixStack,
    "rmp": RMPStack,
    "totem": TotemStack,
    "ensemble": EnsembleStack,
}

#: How each stack is built, takes an application payload and reports what
#: it delivered: ``(stack class, send(stack, payload, msg_class),
#: log(stack))``.  The new stack's application path is its generic
#: broadcast (class ``"abcast"`` unless one is given); ``new-abcast``
#: drives its atomic broadcast directly, ``composed`` is the same stack
#: wired by events.
STACKS = {
    "new": (
        NewArchitectureStack,
        lambda s, p, c: s.gbcast.gbcast_payload(p, c or "abcast"),
        lambda s: _app(m for m, _path in s.gbcast.delivered_log),
    ),
    "new-abcast": (
        NewArchitectureStack,
        lambda s, p, c: s.abcast.abcast(s.process.msg_ids.message(p)),
        lambda s: _app(s.abcast.delivered_log),
    ),
    "composed": (ComposedNewArchitecture, lambda s, p, c: s.gbcast(p, c or "abcast"), _delivered),
    **{kind: (stack, _abcast_payload, _delivered) for kind, stack in TRADITIONAL.items()},
}


class Group:
    """``n`` members of one kind of stack (a key of :data:`STACKS`) in a
    started world, driven the same way whatever the stack: ``send`` from a
    member (now or at a simulated instant), ``log`` what a member
    delivered, ``drain`` until members delivered a count."""

    def __init__(self, kind: str, n: int, seed: int = 0, link=LAN, **build: Any) -> None:
        self.kind = kind
        self.world = World(seed=seed, default_link=link)
        stack, self._send, self._log = STACKS[kind]
        self.stacks = build_group(self.world, n, stack, **build)
        self.world.start()

    def send(self, pid: str, payload: Any, msg_class: str | None = None,
             at: float | None = None) -> None:
        if at is None:
            self._send(self.stacks[pid], payload, msg_class)
        else:
            self.world.scheduler.at(at, self._send, self.stacks[pid], payload, msg_class)

    def log(self, pid: str) -> list[Any]:
        return self._log(self.stacks[pid])

    def drain(self, count: int, pids: list[str] | None = None) -> dict[str, list[Any]]:
        """Run until every member of ``pids`` (default: all) delivered
        ``count`` application messages; return their logs."""
        pids = list(self.stacks) if pids is None else pids
        assert self.world.run_until(
            lambda: all(len(self.log(p)) == count for p in pids), timeout=600_000
        ), f"{self.kind} group did not deliver {count} messages"
        return {p: self.log(p) for p in pids}

    def after_crash(self, victim: str, sender: str, payload: Any = "post-crash",
                    msg_class: str | None = None) -> float:
        """Crash ``victim``, send from ``sender`` and return how long the
        sender took to deliver its own message."""
        self.world.crash(victim)
        start = self.world.now
        self.send(sender, payload, msg_class)
        assert self.world.run_until(
            lambda: payload in self.log(sender), timeout=600_000
        ), f"{self.kind}: {sender} never delivered {payload!r}"
        return self.world.now - start


def teardown_leaks(world: World, timeout: float = 30_000.0) -> int:
    """Scenario teardown for latency-interval hygiene.

    Scenario exit conditions (a view installed, one message delivered)
    routinely fire while later broadcasts are still in flight, leaving
    their latency intervals open.  This drains the world until the open
    gauge reaches zero (or ``timeout`` simulated ms pass), then abandons
    whatever is left — those intervals can never close once the world is
    discarded, and they must not linger as phantom leaks.  Returns the
    number still open *after* the drain: the figure the
    ``no_leaked_latency_intervals`` shape flags assert to be zero.
    """
    recorder = world.metrics.latency
    world.run_until(lambda: recorder.open_intervals() == 0, timeout=timeout)
    leaked = recorder.open_intervals()
    recorder.abandon_if(lambda _tag, _key: True)
    return leaked


# ----------------------------------------------------------------------
# Counter read-outs
# ----------------------------------------------------------------------

#: Layers excluded from per-delivery protocol cost: failure-detector
#: heartbeats are constant background noise, not per-message work, and
#: used to skew every per-delivery table in long runs.
NON_PROTOCOL_LAYERS = ("fd",)


def sent_by_layer(world: World) -> dict[str, int]:
    """Per-layer ``net.sent`` breakdown (excluding the per-port detail)."""
    return {
        layer: count
        for layer, count in world.metrics.counters.by_prefix("net.sent.").items()
        if not layer.startswith("port.")
    }


def bytes_by_layer(world: World) -> dict[str, int]:
    """Per-layer ``net.bytes`` breakdown (wire-byte cost model).

    Structural estimates from ``repro.net.wire.wire_size``, attributed
    per segment even through coalesced batches — the measurement half of
    the dissemination-vs-ordering split: msgs/delivery alone cannot show
    that ordering traffic stopped carrying payload bodies.

    The per-sender ``net.bytes.sent.<pid>`` breakdown lives in the same
    counter namespace and is excluded here; see :func:`bytes_by_node`.
    """
    return {
        layer: count
        for layer, count in world.metrics.counters.by_prefix("net.bytes.").items()
        if not layer.startswith("sent.")
    }


def bytes_by_node(world: World) -> dict[str, int]:
    """Per-sender wire bytes (``net.bytes.sent.<pid>``).

    The fairness half of the wire cost model: the aggregate byte count
    cannot show whether the load sits on one NIC (flood origin) or is
    balanced around a dissemination ring/tree.
    """
    return dict(world.metrics.counters.by_prefix("net.bytes.sent."))


def protocol_messages_sent(world: World) -> int:
    """Datagrams sent by protocol layers (heartbeat traffic excluded)."""
    by_layer = sent_by_layer(world)
    return sum(
        count for layer, count in by_layer.items() if layer not in NON_PROTOCOL_LAYERS
    )


def per_delivery_messages(world: World, delivered: int) -> float:
    """Protocol datagrams per delivery, from the per-layer counters.

    FD heartbeats are excluded: they scale with wall-clock time and group
    size, not with deliveries, and conflated the §4.1/§4.2 cost tables.
    """
    if delivered == 0:
        return math.nan
    return protocol_messages_sent(world) / delivered


# ----------------------------------------------------------------------
# The BENCH_abgb.json metric blocks and the rules every trajectory
# scenario applies to them
# ----------------------------------------------------------------------
def round_json(value: float, digits: int = 4) -> float | None:
    """Round for the JSON document; NaN (no samples) becomes null so the
    output stays strict JSON."""
    if isinstance(value, float) and math.isnan(value):
        return None
    return round(value, digits)


def world_metrics(world: World, delivered: int, leaked: int | None = None) -> dict:
    """The standard per-scenario metrics block.

    ``leaked`` is the pre-abandon open-interval count returned by
    :func:`teardown_leaks`; scenarios that ran the teardown pass it here
    (the live gauge is zero by then, which would hide leaks).
    """
    stats = world.metrics.latency.stats("abcast")
    by_layer = sent_by_layer(world)
    per_delivery = per_delivery_messages(world, delivered)
    byte_layers = bytes_by_layer(world)
    return {
        "delivered": delivered,
        "duration_ms": round_json(world.now),
        "throughput_msgs_per_s": round_json(delivered / (world.now / 1_000.0))
        if world.now > 0
        else 0.0,
        "latency_ms": {
            "p50": round_json(stats.p50),
            "p95": round_json(stats.p95),
            "p99": round_json(stats.p99),
        },
        "msgs_per_delivery": round_json(per_delivery),
        "msgs_per_delivery_by_layer": {
            layer: round_json(count / delivered) if delivered else None
            for layer, count in sorted(by_layer.items())
        },
        # Wire-byte cost model (schema v4): structural per-datagram byte
        # estimates, attributed per segment even through coalesced
        # batches.  This is what separates dissemination cost (abcast
        # bodies) from ordering cost (consensus id vectors).
        "bytes_per_delivery": round_json(
            sum(byte_layers.values()) / delivered
        )
        if delivered
        else None,
        "bytes_per_delivery_by_layer": {
            layer: round_json(count / delivered) if delivered else None
            for layer, count in sorted(byte_layers.items())
        },
        "open_latency_intervals": leaked
        if leaked is not None
        else world.metrics.latency.open_intervals(),
        "rc_retransmits": world.metrics.counters.get("rc.retransmits"),
    }


def decision_path_block(world: World, stacks: dict | None = None) -> dict:
    """The schema-v5 ``decision_path`` block: how consensus decided.

    Publishes the decided-round histogram (``consensus.decided_round_<r>``
    counters), the round-0 decision fraction the fast-path claim rests
    on, the fast-path counters themselves, the consensus wire cost per
    decide, the propose→decide delay attribution from the span tree,
    and — when the scenario's stacks are at hand — the live
    ``pre_propose_buffered`` gauge (bounded-memory satellite).
    """
    counters = world.metrics.counters
    decided_rounds = dict(
        sorted(counters.by_prefix("consensus.decided_round_").items())
    )
    decided = sum(decided_rounds.values())
    consensus_msgs = counters.get("consensus.messages")
    block = {
        "decided_rounds": decided_rounds,
        "decided": decided,
        "round0_fraction": round_json(decided_rounds.get("0", 0) / decided)
        if decided
        else None,
        "fast_path_proposals": counters.get("consensus.fast_path_proposals"),
        "fast_path_local_decides": counters.get("consensus.fast_path_local_decides"),
        "consensus_msgs_per_decide": round_json(consensus_msgs / decided)
        if decided
        else None,
        "pre_propose_pruned": counters.get("consensus.pre_propose_pruned"),
        **critpath.summarize_decisions(world.spans),
    }
    if stacks is not None:
        block["pre_propose_buffered"] = sum(
            s.consensus.pre_propose_buffered() for s in stacks.values()
        )
    return block


def critical_path_block(world: World) -> dict:
    """Per-layer critical-path latency attribution for a world's abcast
    deliveries (see ``repro.sim.critpath``): where each delivery's time
    went — queueing vs transit vs ordering wait, per protocol layer —
    plus span-tree health (completeness, integrity)."""
    return critpath.summarize_deliveries(world.spans, "adeliver", "abcast")


def round0_dominates(block: dict, threshold: float = 0.95) -> Check:
    """Shape rule for failure-free runs: (almost) every instance decided
    in round 0.  Runs that performed no consensus at all pass trivially
    (nothing escaped round 0)."""
    fraction = block["round0_fraction"]
    return claim("round-0 fraction", 1.0 if fraction is None else fraction, ">=", threshold)


def causal_trees_complete(block: dict) -> Check:
    """Shape rule: every delivery's causal tree runs origin-send →
    deliver (complete) and the span tree has no orphans/cycles.  A run
    with no delivery at all has nothing to show: the check is false."""
    return claim(
        "causal trees",
        {"complete": block["complete"], "integrity errors": block["integrity_errors"]},
        "==",
        {"complete": block["deliveries"] or None, "integrity errors": 0},
    )


def check_hygiene(result: Result, runs: dict[str, dict]) -> None:
    """The two hygiene flags of the traffic scenarios on loss-free links:
    no latency interval left open, and the reliable channel re-sent
    nothing (its timeout stays above the round trip, see
    ``repro.net.reliable``)."""
    result.check(
        "no_leaked_latency_intervals", "open latency intervals",
        {label: run["open_latency_intervals"] for label, run in runs.items()}, "==", 0,
    )
    result.check(
        "no_spurious_retransmits", "reliable-channel retransmits",
        {label: run["rc_retransmits"] for label, run in runs.items()}, "==", 0,
    )
