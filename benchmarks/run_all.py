#!/usr/bin/env python3
"""Headless Section-4 benchmark runner — emits ``BENCH_abgb.json``.

Runs the §4.1/§4.2/§4.3 scenario benches (reusing the importable
scenario functions of the ``bench_sec4*`` modules) plus the consensus
pipelining comparison, without pytest, and writes one machine-readable
JSON document: per scenario, throughput, a-delivery latency percentiles
(p50/p95/p99), per-delivery message cost broken down by layer, the
scenario's *shape* flags — the booleans the paper's arguments rest on —
and ``perf.sched_events_processed``, the number of simulator events the
scenario executed.

All scenarios run in simulated time with fixed seeds, so every figure —
the event count included — is deterministic and the document is a pure
function of the tree: the committed baseline under
``benchmarks/baseline/`` can be compared exactly, with a small numeric
tolerance for safety.  Host time is not measured here; that is
``benchmarks/perf/``'s job.

Usage::

    python benchmarks/run_all.py [--out BENCH_abgb.json]
                                 [--check benchmarks/baseline/BENCH_abgb.json]
                                 [--tolerance 0.25]
                                 [--profile PROFILE.txt] [--profile-top 25]

``--check`` exits non-zero if any shape flag is false, any baseline
shape flag changed, a numeric metric drifted beyond the tolerance, any
``msgs_per_delivery`` or ``latency_ms`` figure regressed more than 10%
(improvements never fail — both are one-sided); it prints the
simplicity trajectory (``meta``) baseline → current either way.
``--profile`` additionally runs every scenario under cProfile and writes
a cumulative-time top-N table.  See ``docs/benchmarks.md``.
"""

from __future__ import annotations

import argparse
import cProfile
import dataclasses
import io
import json
import math
import pstats
import sys
import time
from pathlib import Path

_HERE = Path(__file__).resolve().parent
for entry in (str(_HERE), str(_HERE.parent / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from common import (  # noqa: E402
    bytes_by_layer,
    bytes_by_node,
    per_delivery_messages,
    sent_by_layer,
    teardown_leaks,
)

from repro.core.new_stack import StackConfig, build_new_group  # noqa: E402
from repro.net.topology import LinkModel  # noqa: E402
from repro.net.wire import Blob  # noqa: E402
from repro.sim import critpath  # noqa: E402
from repro.sim.scheduler import Scheduler  # noqa: E402
from repro.sim.world import World  # noqa: E402

#: v4: every scenario's metrics carry a ``bytes`` block (wire-byte cost
#: model, per-layer bytes/delivery) and the ``payload_sweep`` scenario
#: pins the dissemination-vs-ordering separation (64 B vs 4 KiB bodies,
#: ordering bytes flat).
#: v5: every scenario additionally carries a ``decision_path`` block
#: (decided-round histogram, round-0 decision fraction, fast-path
#: counters, consensus msgs and propose→decide delay per decide) and
#: ``--check`` applies a one-sided latency rule: any ``latency_ms``
#: figure may improve freely but must not regress more than 10%.
#: v6: the ``dissemination_sweep`` scenario runs the 4 KiB single-origin
#: workload with the bandwidth term enabled under ``flood`` vs ``ring``
#: payload routing, each run carrying a ``node_bytes`` block
#: (per-node sent bytes, ``max_node_bytes_per_delivery``, fairness
#: ratio, origin-over-mean); scenarios may attach a ``shape_detail``
#: block (measured value + bound per shape flag, informational) that
#: ``--check`` quotes when a flag fails.
SCHEMA = "bench-abgb/v6"

#: Worlds the current scenario wants exported/verified by the ``--trace-dir``
#: step: ``(label, world)`` pairs, drained by ``main`` after each scenario.
TRACE_WORLDS: list[tuple[str, World]] = []

#: Hard ceiling on the failure detector's wire cost in the pipelining
#: scenario at window=1: fd datagrams per a-delivery.  With heartbeat
#: suppression and the transport liveness tap the workload's own traffic
#: carries most of the liveness evidence, so explicit heartbeats all but
#: disappear (the seed stack measured 1.73 here; the traffic-aware FD
#: must stay at or under this bound).
FD_W1_BOUND = 0.9

#: Hard ceiling on *ordering* wire cost at large payloads: consensus
#: bytes per a-delivery in the 4 KiB payload-sweep run.  With id-only
#: proposals the ordering layer carries MsgId vectors — its byte cost is
#: payload-size-independent (the sweep measured 180.4 at both 64 B and
#: 4 KiB; pre-separation it was 9149.7 at 4 KiB).  The bound leaves
#: headroom for id-vector/batching drift but fails loudly if payload
#: bodies ever leak back into proposals.
CONSENSUS_BYTES_4K_BOUND = 500.0

#: Hard ceiling on the *origin's* share of dissemination wire cost under
#: ring routing: the origin's sent bytes per delivery must stay within
#: this factor of the per-node mean (a flood origin sits at ~n−1× the
#: mean — its NIC carries every payload copy; a ring origin sends each
#: body once, like everyone else).
RING_ORIGIN_BALANCE_BOUND = 2.0

#: One-sided throughput rule for the dissemination sweep: with the
#: bandwidth term *disabled*, ring dissemination must drain the workload
#: at no less than this fraction of flood's throughput — the overlay
#: trades origin fan-out for hop latency, and ordering (id-only, decoupled
#: from dissemination) must hide those hops from end-to-end throughput.
DISSEMINATION_THROUGHPUT_FLOOR = 0.90

#: The dissemination sweep's group size and number of bodies, and how
#: close the ring's median propose-to-decide delay must stay to flood's:
#: DECIDE and PROPOSE/ACK are direct legs on either, so an overlay hop
#: showing up in it means ordering traffic is walking the ring again.
DISSEMINATION_COUNT = 5
DISSEMINATION_ROUNDS = 100
RING_DECIDE_OVER_FLOOD_BOUND = 1.25


#: The idle-group sweep: group sizes, and how far above the n = 5
#: per-member cost the keep-alive total may sit at any other size.
FD_IDLE_SIZES = (3, 5, 9, 17)
FD_IDLE_LINEAR_SLACK = 1.25


def simplicity_meta() -> dict:
    """The size of what the numbers were taken on: configuration fields
    of the stack and non-blank source lines under ``src/repro``."""
    src_lines = sum(
        1
        for path in (_HERE.parent / "src" / "repro").rglob("*.py")
        for line in path.read_text().splitlines()
        if line.strip()
    )
    return {
        "stack_config_fields": len(dataclasses.fields(StackConfig)),
        "src_lines": src_lines,
    }


# ----------------------------------------------------------------------
# Shared instrumentation
# ----------------------------------------------------------------------
def _round(value: float, digits: int = 4) -> float | None:
    """Round for the JSON document; NaN (no samples) becomes null so the
    output stays strict JSON."""
    if isinstance(value, float) and math.isnan(value):
        return None
    return round(value, digits)


def world_metrics(world: World, delivered: int, leaked: int | None = None) -> dict:
    """The standard per-scenario metrics block.

    ``leaked`` is the pre-abandon open-interval count returned by
    :func:`common.teardown_leaks`; scenarios that ran the teardown pass
    it here (the live gauge is zero by then, which would hide leaks).
    """
    stats = world.metrics.latency.stats("abcast")
    by_layer = sent_by_layer(world)
    per_delivery = per_delivery_messages(world, delivered)
    byte_layers = bytes_by_layer(world)
    return {
        "delivered": delivered,
        "duration_ms": _round(world.now),
        "throughput_msgs_per_s": _round(delivered / (world.now / 1_000.0))
        if world.now > 0
        else 0.0,
        "latency_ms": {
            "p50": _round(stats.p50),
            "p95": _round(stats.p95),
            "p99": _round(stats.p99),
        },
        "msgs_per_delivery": _round(per_delivery),
        "msgs_per_delivery_by_layer": {
            layer: _round(count / delivered) if delivered else None
            for layer, count in sorted(by_layer.items())
        },
        # Wire-byte cost model (schema v4): structural per-datagram byte
        # estimates, attributed per segment even through coalesced
        # batches.  This is what separates dissemination cost (abcast
        # bodies) from ordering cost (consensus id vectors).
        "bytes_per_delivery": _round(
            sum(byte_layers.values()) / delivered
        )
        if delivered
        else None,
        "bytes_per_delivery_by_layer": {
            layer: _round(count / delivered) if delivered else None
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
        "round0_fraction": _round(decided_rounds.get("0", 0) / decided)
        if decided
        else None,
        "fast_path_proposals": counters.get("consensus.fast_path_proposals"),
        "fast_path_local_decides": counters.get("consensus.fast_path_local_decides"),
        "consensus_msgs_per_decide": _round(consensus_msgs / decided)
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


def round0_dominates(block: dict, threshold: float = 0.95) -> bool:
    """Shape rule for failure-free runs: (almost) every instance decided
    in round 0.  Runs that performed no consensus at all pass trivially
    (nothing escaped round 0)."""
    fraction = block["round0_fraction"]
    return fraction is None or fraction >= threshold


def critical_path_block(world: World) -> dict:
    """Per-layer critical-path latency attribution for a world's abcast
    deliveries (see ``repro.sim.critpath``): where each delivery's time
    went — queueing vs transit vs ordering wait, per protocol layer —
    plus span-tree health (completeness, integrity)."""
    return critpath.summarize_deliveries(world.spans, "adeliver", "abcast")


def no_spurious_retransmits(*runs: dict) -> bool:
    """Shape rule for loss-free links: the reliable channel re-sent
    nothing (its timeout stays above the round trip, see
    ``repro.net.reliable``)."""
    return all(run["rc_retransmits"] == 0 for run in runs)


def causal_trees_complete(block: dict) -> bool:
    """Shape rule: every delivery's causal tree runs origin-send →
    deliver (complete) and the span tree has no orphans/cycles."""
    return (
        block["deliveries"] > 0
        and block["complete"] == block["deliveries"]
        and block["integrity_errors"] == 0
        and block["spans_dropped"] == 0
    )


def run_traffic(
    window: int,
    seed: int = 23,
    max_batch: int = 4,
    payload_bytes: int | None = None,
    label: str | None = None,
) -> dict:
    """The bursty staggered-senders workload used for the pipelining
    comparison (mirrors ``tests/abcast/test_pipelining.py``).

    ``payload_bytes`` models the application body size with a
    :class:`repro.net.wire.Blob` riding each payload — same schedule,
    same RNG draws, only the wire-byte charges change (the 64 B vs
    4 KiB sweep).
    """
    config = StackConfig(abcast_window=window, abcast_max_batch=max_batch)
    world = World(seed=seed, default_link=LinkModel(3.0, 8.0))
    stacks = build_new_group(world, 3, config=config)
    world.start()
    total = 0
    for i in range(10):
        for pid in list(stacks):
            proc = stacks[pid].process

            def send(p=proc, s=stacks[pid], i=i):
                body = f"{p.pid}:{i}"
                payload = body if payload_bytes is None else (body, Blob(payload_bytes))
                s.abcast.abcast(p.msg_ids.message(payload))

            world.scheduler.at(float(5 * i), send)
            total += 1
    app = lambda s: [m for m in s.abcast.delivered_log if not m.msg_class.startswith("_")]
    ok = world.run_until(
        lambda: all(len(app(s)) == total for s in stacks.values()), timeout=120_000
    )
    assert ok, "pipelining workload did not drain"
    leaked = teardown_leaks(world)
    counters = world.metrics.counters
    metrics = world_metrics(world, delivered=total * len(stacks), leaked=leaked)
    metrics["instances"] = counters.get("abcast.instances")
    metrics["instances_pipelined"] = counters.get("abcast.instances_pipelined")
    # FD attribution: where the liveness evidence came from.  Explicit
    # heartbeats + suppressed beats = all beat opportunities; tap
    # refreshes are the traffic-carried evidence that makes the
    # suppression safe.
    metrics["fd"] = {
        "explicit_hb": counters.get("fd.explicit_hb"),
        "suppressed": counters.get("fd.suppressed"),
        "tap_refreshes": counters.get("fd.tap_refreshes"),
    }
    metrics["critical_path"] = critical_path_block(world)
    metrics["decision_path"] = decision_path_block(world, stacks)
    TRACE_WORLDS.append((label or f"pipelining_w{window}", world))
    return metrics


def endstage_ordering_bytes(payload_bytes: int, ops: int = 200) -> int:
    """Wire bytes of the ordering layers (``net.bytes.abcast`` +
    ``net.bytes.consensus``) for a fixed all-conflicting generic
    broadcast schedule: three senders, an op every 7 ms.

    What is ordered is an ENDSTAGE of ids, so the sum must not depend on
    the size of the bodies at all (``tests/integration/test_bench_guard``
    makes the same two runs).
    """
    world = World(seed=7, default_link=LinkModel(3.0, 8.0))
    stacks = build_new_group(world, 3)
    world.start()
    for i in range(ops):
        sender = stacks[f"p0{i % 3}"].gbcast
        world.scheduler.at(
            20.0 + 7.0 * i, sender.gbcast_payload, ("op", i, Blob(payload_bytes)), "abcast"
        )
    ok = world.run_until(
        lambda: all(len(s.gbcast.delivered_log) == ops for s in stacks.values()),
        timeout=30_000,
    )
    assert ok, "endstage workload did not drain"
    world.run_for(200.0)
    counters = world.metrics.counters
    return counters.get("net.bytes.abcast") + counters.get("net.bytes.consensus")


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------
def scenario_sec41() -> dict:
    from bench_sec41_complexity import dynamic_protocols_new_arch
    from repro.traditional.ensemble import EnsembleStack
    from repro.traditional.isis import IsisStack
    from repro.traditional.phoenix import PhoenixStack
    from repro.traditional.rmp import RMPStack
    from repro.traditional.totem import TotemStack

    traditional = {
        stack.__name__.replace("Stack", ""): len(stack.ORDERING_SOLVERS)
        for stack in (IsisStack, PhoenixStack, RMPStack, TotemStack, EnsembleStack)
    }
    dynamic = dynamic_protocols_new_arch()

    # Cost profile of a plain new-architecture run with traffic and a
    # membership change (the dynamic scenario, instrumented).
    world = World(seed=30)
    stacks = build_new_group(world, 3)
    world.start()
    for i in range(5):
        stacks["p00"].gbcast.gbcast_payload(("m", i), "abcast")
    stacks["p01"].membership.remove("p02")
    assert world.run_until(lambda: stacks["p00"].membership.view.id == 1, timeout=60_000)
    # The view-installed exit condition fires while the tail of the
    # gbcast traffic is still in flight; drain it so those latency
    # intervals close instead of leaking (this scenario used to leak 11).
    leaked = teardown_leaks(world)
    # Application (g-)deliveries: ``abcast.delivered`` also counts every
    # ENDSTAGE and ctl a-delivery, so a protocol that orders fewer
    # internal messages would read as costlier per delivery.
    delivered = world.metrics.counters.get("gbcast.delivered")
    cp = critical_path_block(world)
    dp = decision_path_block(world, stacks)
    TRACE_WORLDS.append(("sec41_complexity", world))
    return {
        "section": "4.1",
        "metrics": {
            "ordering_solvers": {"new_architecture": 1, **traditional},
            "dynamic_mechanisms": dynamic,
            **world_metrics(world, delivered, leaked=leaked),
            "critical_path": cp,
            "decision_path": dp,
        },
        "shape": {
            "new_arch_single_solver": all(v >= 2 for v in traditional.values()),
            "dynamic_single_mechanism": dynamic == ["consensus sequence (abcast)"],
            "no_leaked_latency_intervals": leaked == 0,
            "causal_trees_complete": causal_trees_complete(cp),
            # Failure-free run (the membership change is voluntary, not a
            # crash): the fast path keeps every instance in round 0.
            "round0_dominates": round0_dominates(dp),
        },
    }


def scenario_sec42() -> dict:
    from bench_sec42_bank import run_point
    from repro.gbcast.conflict import ConflictRelation, bank_relation

    fractions = (0.0, 0.3, 1.0)
    points = {}
    decided_rounds: dict[str, int] = {}
    for f in fractions:
        gb = run_point(f, bank_relation())
        atomic = run_point(f, ConflictRelation.always())
        for point in (gb, atomic):
            for rnd, count in point["decided_rounds"].items():
                decided_rounds[rnd] = decided_rounds.get(rnd, 0) + count
        points[f"{f:.0%}"] = {
            "gb_deposit_ms": _round(gb["deposit_ms"]),
            "abcast_deposit_ms": _round(atomic["deposit_ms"]),
            "gb_consensus": gb["consensus"],
            "abcast_consensus": atomic["consensus"],
            "consistent": gb["balance"] == atomic["balance"],
            "leaked_latency_intervals": gb["leaked"] + atomic["leaked"],
        }
    decided = sum(decided_rounds.values())
    decision_path = {
        "decided_rounds": dict(sorted(decided_rounds.items())),
        "decided": decided,
        "round0_fraction": _round(decided_rounds.get("0", 0) / decided)
        if decided
        else None,
    }
    p0, p100 = points["0%"], points["100%"]
    return {
        "section": "4.2",
        "metrics": {"points": points, "decision_path": decision_path},
        "shape": {
            "gb_zero_consensus_at_0pct": p0["gb_consensus"] == 0,
            # Strictly faster where nothing conflicts, never slower once
            # something does.  No factor: a conflict burst costs one
            # consensus instance whichever relation reports the
            # conflicts (EXPERIMENTS.md §4.2).
            "gb_deposits_faster_at_0pct": p0["gb_deposit_ms"] < p0["abcast_deposit_ms"],
            "gb_deposits_no_slower_at_30pct": points["30%"]["gb_deposit_ms"]
            <= points["30%"]["abcast_deposit_ms"],
            "consensus_grows_with_conflict_rate": p0["gb_consensus"]
            <= points["30%"]["gb_consensus"]
            <= p100["gb_consensus"],
            "consistent_at_every_point": all(p["consistent"] for p in points.values()),
            "no_leaked_latency_intervals": all(
                p["leaked_latency_intervals"] == 0 for p in points.values()
            ),
            # All bank runs are failure-free, so whatever consensus the
            # conflict rate forces must decide on the round-0 fast path.
            "round0_dominates": round0_dominates(decision_path),
        },
        "shape_detail": {
            "gb_deposits_faster_at_0pct": (
                f"gb deposit {p0['gb_deposit_ms']} ms < "
                f"abcast deposit {p0['abcast_deposit_ms']} ms"
            ),
            "gb_deposits_no_slower_at_30pct": (
                f"gb deposit {points['30%']['gb_deposit_ms']} ms <= "
                f"abcast deposit {points['30%']['abcast_deposit_ms']} ms"
            ),
            "round0_dominates": (
                f"round-0 fraction {decision_path['round0_fraction']} >= 0.95"
            ),
        },
    }


def scenario_sec43() -> dict:
    from bench_sec43_responsiveness import (
        false_suspicion_cost,
        isis_post_crash,
        new_arch_post_crash,
    )

    leaks: list[int] = []
    worlds: list = []
    latency = {
        f"{t:.0f}ms": {
            "new_arch_ms": _round(
                new_arch_post_crash(t, leak_sink=leaks, world_sink=worlds)
            ),
            "isis_ms": _round(isis_post_crash(t, leak_sink=leaks)),
        }
        for t in (200.0, 1_000.0)
    }
    # Critical-path attribution of the headline run (new arch, 200 ms
    # timeout, post-crash): where the post-crash latency actually went.
    cp = critical_path_block(worlds[0])
    # Decision-path block of the same run: a coordinator crash is exactly
    # the case where instances escape round 0, and the decided-round
    # histogram shows how many did (no round-0 shape rule here).
    dp = decision_path_block(worlds[0])
    TRACE_WORLDS.append(("sec43_new_arch_200ms", worlds[0]))
    new_kills, isis_kills, transfers = false_suspicion_cost(200.0, leak_sink=leaks)
    # Effective responsiveness: the new stack can afford the small
    # timeout; Isis is forced above the worst silent period (600 ms).
    new_effective = latency["200ms"]["new_arch_ms"]
    isis_effective = latency["1000ms"]["isis_ms"]
    return {
        "section": "4.3",
        "metrics": {
            "post_crash_latency": latency,
            "false_suspicion": {
                "new_arch_kills": new_kills,
                "isis_kills": isis_kills,
                "isis_forced_state_transfers": transfers,
            },
            "effective_advantage": _round(isis_effective / new_effective, 2),
            "leaked_latency_intervals": sum(leaks),
            "critical_path": cp,
            "decision_path": dp,
        },
        "shape": {
            "false_suspicion_free_for_new_arch": new_kills == 0,
            "false_suspicion_fatal_for_isis": isis_kills >= 1,
            "effective_gap_gt_2x": isis_effective > 2 * new_effective,
            "no_leaked_latency_intervals": sum(leaks) == 0,
            "causal_trees_complete": causal_trees_complete(cp),
        },
        "shape_detail": {
            "effective_gap_gt_2x": (
                f"isis effective {isis_effective} ms > "
                f"2 * new-arch effective {new_effective} ms"
            ),
            "false_suspicion_fatal_for_isis": f"isis kills {isis_kills} >= 1",
        },
    }


def scenario_pipelining() -> dict:
    serial = run_traffic(window=1)
    pipelined = run_traffic(window=4)
    return {
        "section": "pipelining",
        "metrics": {"w1": serial, "w4": pipelined},
        "shape": {
            "w4_improves_p50": pipelined["latency_ms"]["p50"]
            < serial["latency_ms"]["p50"],
            "w4_drains_no_slower": pipelined["duration_ms"] <= serial["duration_ms"],
            "w4_actually_pipelined": pipelined["instances_pipelined"] > 0,
            "no_leaked_latency_intervals": serial["open_latency_intervals"] == 0
            and pipelined["open_latency_intervals"] == 0,
            "no_spurious_retransmits": no_spurious_retransmits(serial, pipelined),
            # Traffic-aware FD: the workload's own datagrams carry the
            # liveness evidence, so the explicit-heartbeat cost per
            # delivery must stay under the hard bound...
            "fd_cost_bounded_w1": (
                serial["msgs_per_delivery_by_layer"].get("fd", 0.0) or 0.0
            )
            <= FD_W1_BOUND,
            # ...and both mechanisms must actually be exercising: beats
            # suppressed by recent sends, and arrivals refreshing the FD.
            "fd_suppression_active": serial["fd"]["suppressed"] > 0
            and serial["fd"]["tap_refreshes"] > 0,
            # Tentpole guard: every a-delivery in both runs owns a
            # complete causal tree from origin send to deliver.
            "causal_trees_complete_w1": causal_trees_complete(serial["critical_path"]),
            "causal_trees_complete_w4": causal_trees_complete(
                pipelined["critical_path"]
            ),
            # Fast-path guard: failure-free runs decide (almost) every
            # instance in round 0, and the fast path actually fired.
            "round0_dominates_w1": round0_dominates(serial["decision_path"]),
            "round0_dominates_w4": round0_dominates(pipelined["decision_path"]),
            "fast_path_active": serial["decision_path"]["fast_path_proposals"] > 0
            and pipelined["decision_path"]["fast_path_proposals"] > 0,
        },
        "shape_detail": {
            "w4_improves_p50": (
                f"w4 p50 {pipelined['latency_ms']['p50']} ms < "
                f"w1 p50 {serial['latency_ms']['p50']} ms"
            ),
            "w4_drains_no_slower": (
                f"w4 drained in {pipelined['duration_ms']} ms <= "
                f"w1 {serial['duration_ms']} ms"
            ),
            "fd_cost_bounded_w1": (
                f"fd msgs/delivery "
                f"{serial['msgs_per_delivery_by_layer'].get('fd', 0.0)} <= "
                f"hard bound {FD_W1_BOUND}"
            ),
            "round0_dominates_w1": (
                f"round-0 fraction {serial['decision_path']['round0_fraction']}"
                f" >= 0.95"
            ),
            "round0_dominates_w4": (
                f"round-0 fraction "
                f"{pipelined['decision_path']['round0_fraction']} >= 0.95"
            ),
        },
    }


def scenario_payload_sweep() -> dict:
    """Dissemination vs. ordering at 64 B and 4 KiB application bodies.

    Same seed, same schedule, same RNG draws — only the modelled payload
    size changes (a Blob rides each message).  With id-only consensus
    proposals the *ordering* byte cost (consensus layer) must stay flat
    across the sweep, while the *dissemination* cost (abcast layer,
    which carries each body exactly once over rbcast) scales with the
    payload — the Ring Paxos separation made measurable.
    """
    small = run_traffic(window=4, payload_bytes=64, label="payload_sweep_64B")
    large = run_traffic(window=4, payload_bytes=4096, label="payload_sweep_4KiB")
    ordering_small = small["bytes_per_delivery_by_layer"].get("consensus", 0.0) or 0.0
    ordering_large = large["bytes_per_delivery_by_layer"].get("consensus", 0.0) or 0.0
    body_small = small["bytes_per_delivery_by_layer"].get("abcast", 0.0) or 0.0
    body_large = large["bytes_per_delivery_by_layer"].get("abcast", 0.0) or 0.0
    endstage_small, endstage_large = endstage_ordering_bytes(64), endstage_ordering_bytes(4096)
    return {
        "section": "payload-sweep",
        "metrics": {
            "64B": small,
            "4KiB": large,
            "endstage_ordering_bytes": {"64B": endstage_small, "4KiB": endstage_large},
            "ordering_bytes_ratio_4k_over_64": _round(
                ordering_large / ordering_small if ordering_small else math.nan, 3
            ),
        },
        "shape": {
            # The headline claim: consensus traffic carries id vectors,
            # so its byte cost does not grow with the payload.
            "ordering_bytes_flat": ordering_large <= ordering_small * 1.10,
            # Bodies ride dissemination — and only dissemination: the
            # abcast layer's byte cost grows by at least one body's
            # worth of the sweep delta per delivery.
            "dissemination_carries_payload": body_large - body_small
            >= (4096 - 64) * 0.5,
            "ordering_cheaper_than_dissemination_at_4k": ordering_large < body_large,
            # Generic broadcast orders ENDSTAGEs of ids: the bytes its
            # ordering layers put on the wire are exactly payload-blind.
            "endstage_bytes_payload_blind": endstage_small == endstage_large > 0,
            "no_leaked_latency_intervals": small["open_latency_intervals"] == 0
            and large["open_latency_intervals"] == 0,
            "no_spurious_retransmits": no_spurious_retransmits(small, large),
            "causal_trees_complete_64B": causal_trees_complete(small["critical_path"]),
            "causal_trees_complete_4KiB": causal_trees_complete(large["critical_path"]),
            "round0_dominates_64B": round0_dominates(small["decision_path"]),
            "round0_dominates_4KiB": round0_dominates(large["decision_path"]),
        },
        "shape_detail": {
            "ordering_bytes_flat": (
                f"consensus bytes/delivery {ordering_large} at 4 KiB <= "
                f"{ordering_small} at 64 B * 1.10"
            ),
            "dissemination_carries_payload": (
                f"abcast bytes/delivery delta {body_large - body_small:.1f} >= "
                f"{(4096 - 64) * 0.5:.1f} (half the payload delta)"
            ),
            "ordering_cheaper_than_dissemination_at_4k": (
                f"consensus {ordering_large} < abcast {body_large} bytes/delivery"
            ),
            "endstage_bytes_payload_blind": (
                f"abcast + consensus bytes {endstage_large} at 4 KiB == "
                f"{endstage_small} at 64 B"
            ),
        },
    }


def run_dissemination(
    policy: str,
    bandwidth: float | None,
    seed: int = 29,
    count: int = DISSEMINATION_COUNT,
    rounds: int = DISSEMINATION_ROUNDS,
    payload_bytes: int = 4096,
    label: str | None = None,
) -> dict:
    """Single-origin 4 KiB workload for the dissemination sweep.

    One member (p00) broadcasts every message — the worst case for flood
    dissemination, whose origin unicasts each body to all n−1 members —
    so the per-node sent-byte skew is the thing being measured, not
    averaged away by staggered senders.  ``bandwidth`` enables the
    ``LinkModel.bytes_per_ms`` term so the serialisation cost of the 4 KiB
    bodies is part of the schedule, exactly the regime where balancing
    the origin's NIC pays.
    """
    config = StackConfig(dissemination=policy)
    world = World(seed=seed, default_link=LinkModel(3.0, 8.0, bytes_per_ms=bandwidth))
    stacks = build_new_group(world, count, config=config)
    world.start()
    proc = stacks["p00"].process
    for i in range(rounds):

        def send(s=stacks["p00"], p=proc, i=i):
            s.abcast.abcast(p.msg_ids.message((f"p00:{i}", Blob(payload_bytes))))

        world.scheduler.at(float(5 * i), send)
    app = lambda s: [m for m in s.abcast.delivered_log if not m.msg_class.startswith("_")]
    ok = world.run_until(
        lambda: all(len(app(s)) == rounds for s in stacks.values()), timeout=120_000
    )
    assert ok, f"dissemination workload ({policy}) did not drain"
    leaked = teardown_leaks(world)
    delivered = rounds * count
    metrics = world_metrics(world, delivered=delivered, leaked=leaked)
    counters = world.metrics.counters
    per_node = bytes_by_node(world)
    per_delivery = {pid: per_node.get(pid, 0) / delivered for pid in sorted(stacks)}
    mean = sum(per_delivery.values()) / len(per_delivery)
    peak = max(per_delivery.values())
    origin = per_delivery["p00"]
    metrics["node_bytes"] = {
        "per_delivery": {pid: _round(v) for pid, v in per_delivery.items()},
        "max_node_bytes_per_delivery": _round(peak),
        "mean_node_bytes_per_delivery": _round(mean),
        "fairness_ratio": _round(peak / mean if mean else math.nan, 3),
        "origin_bytes_per_delivery": _round(origin),
        "origin_over_mean": _round(origin / mean if mean else math.nan, 3),
    }
    metrics["rb"] = {
        "forwarded": counters.get("rb.forwarded"),
        "reroutes": counters.get("rb.reroutes"),
        "nacks_sent": counters.get("rb.nacks_sent"),
    }
    metrics["decision_path"] = decision_path_block(world, stacks)
    TRACE_WORLDS.append((label or f"dissemination_{policy}", world))
    return metrics


def control_goes_direct(ring: dict) -> bool:
    """``rb.forwarded`` counts bodies only: one forward per body and
    forwarding member (single origin p00 = the head, so the ring is the
    plain chain with n − 2 forwarders).  A DECIDE walking the overlay
    would add its own forwards on top."""
    return ring["rb"]["forwarded"] == DISSEMINATION_ROUNDS * (DISSEMINATION_COUNT - 2)


def ring_decides_like_flood(ring: dict, flood: dict) -> bool:
    return (
        ring["decision_path"]["p50_decide_ms"]
        <= flood["decision_path"]["p50_decide_ms"] * RING_DECIDE_OVER_FLOOD_BOUND
    )


def scenario_dissemination_sweep() -> dict:
    """Flood vs ring payload routing (schema v6 tentpole).

    With the bandwidth term enabled, the sweep measures where the wire
    bytes *sit*: a flood origin's NIC carries ~n−1 payload copies per
    broadcast (origin-over-mean ≈ n−1) while ring spreads each body to
    exactly one send per node (origin-over-mean ≈ 1).  A bandwidth-disabled flood/ring pair backs the
    one-sided throughput rule: balancing must not cost end-to-end
    throughput, because ordering is decoupled from dissemination.
    """
    bw = 2_000.0  # bytes/ms: a 4 KiB body costs ~2 ms of serialisation
    flood = run_dissemination("flood", bw, label="dissemination_flood")
    ring = run_dissemination("ring", bw, label="dissemination_ring")
    flood_nobw = run_dissemination("flood", None, label="dissemination_flood_nobw")
    ring_nobw = run_dissemination("ring", None, label="dissemination_ring_nobw")
    ring_origin = ring["node_bytes"]["origin_over_mean"]
    flood_origin = flood["node_bytes"]["origin_over_mean"]
    tput_flood = flood_nobw["throughput_msgs_per_s"]
    tput_ring = ring_nobw["throughput_msgs_per_s"]
    return {
        "section": "dissemination-sweep",
        "metrics": {
            "flood": flood,
            "ring": ring,
            "flood_nobw": flood_nobw,
            "ring_nobw": ring_nobw,
            "ring_throughput_fraction_of_flood": _round(
                tput_ring / tput_flood if tput_flood else math.nan, 3
            ),
        },
        "shape": {
            # The tentpole claim: under ring the origin's sent bytes per
            # delivery sit within the hard bound of the per-node mean...
            "origin_bytes_balanced": ring_origin <= RING_ORIGIN_BALANCE_BOUND,
            # ...whereas the flood origin's NIC carries nearly every
            # payload copy (~n−1× the mean on a single-origin workload).
            "flood_origin_concentrated": flood_origin > RING_ORIGIN_BALANCE_BOUND,
            "ring_flatter_than_flood": ring["node_bytes"]["fairness_ratio"]
            < flood["node_bytes"]["fairness_ratio"] / 2,
            # The overlay actually carried the payloads hop by hop...
            "overlay_forwarding_active": ring["rb"]["forwarded"] > 0,
            # ...and nothing had to be asked for again.
            "no_failure_free_nacks": ring["rb"]["nacks_sent"] == 0,
            # What orders goes direct: nobody forwards a DECIDE, and the
            # decision is as far away over the ring as it is over flood.
            "control_goes_direct": control_goes_direct(ring),
            "ring_decides_like_flood": ring_decides_like_flood(ring, flood)
            and ring_decides_like_flood(ring_nobw, flood_nobw),
            # One-sided throughput rule (bandwidth disabled): the ring's
            # extra hops must not dent end-to-end throughput.
            "ring_throughput_holds": tput_ring
            >= tput_flood * DISSEMINATION_THROUGHPUT_FLOOR,
            "no_leaked_latency_intervals": all(
                run["open_latency_intervals"] == 0
                for run in (flood, ring, flood_nobw, ring_nobw)
            ),
            "no_spurious_retransmits": no_spurious_retransmits(
                flood, ring, flood_nobw, ring_nobw
            ),
        },
        "shape_detail": {
            "origin_bytes_balanced": (
                f"ring origin_over_mean {ring_origin} <= bound "
                f"{RING_ORIGIN_BALANCE_BOUND}"
            ),
            "flood_origin_concentrated": (
                f"flood origin_over_mean {flood_origin} > bound "
                f"{RING_ORIGIN_BALANCE_BOUND}"
            ),
            "ring_flatter_than_flood": (
                f"ring fairness {ring['node_bytes']['fairness_ratio']} < "
                f"flood fairness {flood['node_bytes']['fairness_ratio']} / 2"
            ),
            "ring_throughput_holds": (
                f"ring {tput_ring} msgs/s >= flood {tput_flood} msgs/s * "
                f"{DISSEMINATION_THROUGHPUT_FLOOR}"
            ),
            "control_goes_direct": (
                f"rb.forwarded ring {ring['rb']['forwarded']} for "
                f"{DISSEMINATION_ROUNDS} bodies"
            ),
            "ring_decides_like_flood": (
                f"p50 decide ring {ring['decision_path']['p50_decide_ms']} ms <= flood "
                f"{flood['decision_path']['p50_decide_ms']} ms * {RING_DECIDE_OVER_FLOOD_BOUND} "
                f"(no bandwidth term: {ring_nobw['decision_path']['p50_decide_ms']} vs "
                f"{flood_nobw['decision_path']['p50_decide_ms']})"
            ),
        },
    }


def run_fd_idle(count: int) -> dict:
    """Keep-alive datagrams of an idle group over one simulated second
    (after a 200 ms warm-up): on the star — the links to and from the
    watcher, which everybody watches — on the mesh between the others,
    and sent plus received at the busiest member."""
    world = World(seed=1, default_link=LinkModel(3.0, 8.0), trace_enabled=False)
    head = sorted(build_new_group(world, count))[0]
    handled: dict[str, int] = {}
    links = {"star": 0, "mesh": 0}
    u_send = world.transport.u_send

    def spy(src, dst, port, payload, **kwargs):
        if port == "fd.hb" and world.now >= 200.0:
            handled[src] = handled.get(src, 0) + 1
            handled[dst] = handled.get(dst, 0) + 1
            links["star" if head in (src, dst) else "mesh"] += 1
        u_send(src, dst, port, payload, **kwargs)

    world.transport.u_send = spy
    world.run_for(1_200.0)
    return {
        "keepalives_per_s": links["star"] + links["mesh"],
        "star_per_s": links["star"],
        "mesh_per_s": links["mesh"],
        "busiest_member_per_s": max(handled.values()),
    }


def scenario_fd_idle_sweep() -> dict:
    """What an idle group pays for failure detection as it grows.  The
    small-timeout keep-alives form a star at the watcher (2(n-1) links at
    ``HEARTBEAT_INTERVAL``): linear in n, bounded by the per-member cost
    measured at n = 5.  What is left of the n(n-1) mesh is the exclusion
    monitor's and stays quadratic, 33 times slower: every directed pair
    without the watcher, once per exclusion timeout / 4 — bounded on its
    own.  The all-pairs mesh read about 67 n(n-1) in total (1 317 at
    n = 5)."""
    runs = {count: run_fd_idle(count) for count in FD_IDLE_SIZES}
    per_member = runs[5]["star_per_s"] / 5
    per_pair = 4_000.0 / StackConfig().monitoring.exclusion_timeout
    mesh = {count: (count - 1) * (count - 2) * per_pair for count in runs}
    return {
        "section": "fd-idle-sweep",
        "metrics": {f"n{count}": run for count, run in runs.items()},
        "shape": {
            "fd_idle_cost_linear_in_n": all(
                run["star_per_s"] <= per_member * count * FD_IDLE_LINEAR_SLACK
                for count, run in runs.items()
            ),
            "fd_idle_mesh_at_exclusion_cadence": all(
                run["mesh_per_s"] <= mesh[count] for count, run in runs.items()
            ),
        },
        "shape_detail": {
            "fd_idle_cost_linear_in_n": "; ".join(
                f"n={count}: star {run['star_per_s']}/s <= {per_member:.1f} * {count} * "
                f"{FD_IDLE_LINEAR_SLACK}"
                for count, run in runs.items()
            ),
            "fd_idle_mesh_at_exclusion_cadence": "; ".join(
                f"n={count}: mesh {run['mesh_per_s']}/s <= {mesh[count]:.0f}"
                for count, run in runs.items()
            ),
        },
    }


SCENARIOS = {
    "sec41_complexity": scenario_sec41,
    "sec42_bank": scenario_sec42,
    "sec43_responsiveness": scenario_sec43,
    "pipelining": scenario_pipelining,
    "payload_sweep": scenario_payload_sweep,
    "dissemination_sweep": scenario_dissemination_sweep,
    "fd_idle_sweep": scenario_fd_idle_sweep,
}


# ----------------------------------------------------------------------
# Shape-regression guard
# ----------------------------------------------------------------------

#: Never compared: ``shape_detail`` embeds measured values in prose for
#: actionable --check failures, and comparing the prose would just
#: duplicate the numeric checks with zero tolerance.
INFORMATIONAL_KEYS = ("shape_detail",)

#: One-sided regression bound for per-delivery wire cost (datagrams and
#: bytes alike): getting cheaper is always fine, getting >10% more
#: expensive fails the guard.
MSGS_REGRESSION = 0.10

#: One-sided regression bound for latency figures (``latency_ms`` blocks
#: — the p50/p95/p99 percentiles and the critical-path means): getting
#: faster is always fine, getting >10% slower fails the guard.  This is
#: the rule that pins the round-0 fast path's p50 win once it is in the
#: baseline.
LATENCY_REGRESSION = 0.10


def compare(
    baseline: dict,
    current: dict,
    tolerance: float,
    path: str = "",
) -> list[str]:
    """Every baseline key must exist in ``current``: bools/strings equal,
    numbers within relative ``tolerance``.  Extra current keys are fine
    (new metrics don't invalidate an old baseline).  Anything under a
    ``msgs_per_delivery`` or ``latency_ms`` key is a one-sided bound —
    only a >10% cost/latency *increase* is a regression, improvements
    never fail."""
    problems: list[str] = []
    if isinstance(baseline, dict):
        if not isinstance(current, dict):
            return [f"{path}: expected mapping, got {type(current).__name__}"]
        for key, expected in baseline.items():
            if key in INFORMATIONAL_KEYS:
                continue
            if key not in current:
                problems.append(f"{path}.{key}: missing from current run")
                continue
            problems += compare(expected, current[key], tolerance, f"{path}.{key}")
        return problems
    if isinstance(baseline, bool) or isinstance(baseline, str) or baseline is None:
        if current != baseline:
            problems.append(f"{path}: {baseline!r} -> {current!r}")
        return problems
    if isinstance(baseline, (int, float)):
        if isinstance(baseline, float) and math.isnan(baseline):
            return problems if (isinstance(current, float) and math.isnan(current)) else [
                f"{path}: nan -> {current!r}"
            ]
        if not isinstance(current, (int, float)):
            return [f"{path}: {baseline!r} -> {current!r}"]
        if "msgs_per_delivery" in path or "bytes_per_delivery" in path:
            if current > baseline * (1.0 + MSGS_REGRESSION):
                problems.append(
                    f"{path}: {baseline} -> {current} "
                    f"(per-delivery cost regressed > {MSGS_REGRESSION:.0%})"
                )
            return problems
        if "latency_ms" in path:
            if current > baseline * (1.0 + LATENCY_REGRESSION):
                problems.append(
                    f"{path}: {baseline} -> {current} "
                    f"(latency regressed > {LATENCY_REGRESSION:.0%})"
                )
            return problems
        scale = max(abs(baseline), 1e-9)
        if abs(current - baseline) / scale > tolerance:
            problems.append(
                f"{path}: {baseline} -> {current} (drift > {tolerance:.0%})"
            )
        return problems
    if isinstance(baseline, list):
        if not isinstance(current, list) or len(current) != len(baseline):
            return [f"{path}: list changed: {baseline!r} -> {current!r}"]
        for i, (b, c) in enumerate(zip(baseline, current)):
            problems += compare(b, c, tolerance, f"{path}[{i}]")
        return problems
    return [f"{path}: unsupported baseline value {baseline!r}"]


def check(document: dict, baseline_path: Path, tolerance: float) -> list[str]:
    baseline = json.loads(baseline_path.read_text())
    problems = compare(baseline.get("scenarios", {}), document["scenarios"], tolerance,
                       path="scenarios")
    # The simplicity trajectory goes into every CI log.  One-sided: the
    # stack may lose configuration fields, never gain one unnoticed
    # (``src_lines`` is recorded for the trajectory only).
    meta_before, meta_now = baseline.get("meta", {}), document.get("meta", {})
    for key in sorted(meta_now):
        print(f"[bench] meta.{key}: {meta_before.get(key)} -> {meta_now[key]}")
    fields_before = meta_before.get("stack_config_fields")
    fields_now = meta_now.get("stack_config_fields")
    if None not in (fields_before, fields_now) and fields_now > fields_before:
        problems.append(
            f"meta.stack_config_fields: {fields_now} exceeds the baseline's "
            f"{fields_before} — StackConfig grew a knob"
        )
    for name, scenario in document["scenarios"].items():
        details = scenario.get("shape_detail", {})
        for flag, value in scenario.get("shape", {}).items():
            if value is not True:
                # Quote the measured value and bound when the scenario
                # published them — a bare flag name is not actionable in
                # a CI log.
                detail = details.get(flag)
                suffix = f" ({detail})" if detail else ""
                problems.append(f"scenarios.{name}.shape.{flag}: is false{suffix}")
    # Hard bound (not merely relative-to-baseline): the failure
    # detector's wire cost per delivery in the serial pipelining run.
    pipelining = document["scenarios"].get("pipelining")
    if pipelining is not None:
        fd_w1 = pipelining["metrics"]["w1"]["msgs_per_delivery_by_layer"].get("fd")
        if fd_w1 is None:
            problems.append(
                "scenarios.pipelining.metrics.w1.msgs_per_delivery_by_layer.fd: missing"
            )
        elif fd_w1 > FD_W1_BOUND:
            problems.append(
                f"scenarios.pipelining.metrics.w1.msgs_per_delivery_by_layer.fd: "
                f"{fd_w1} exceeds hard bound {FD_W1_BOUND}"
            )
    # Hard bound on ordering wire cost at large payloads: id-only
    # proposals keep consensus bytes/delivery payload-size-independent.
    sweep = document["scenarios"].get("payload_sweep")
    if sweep is not None:
        cons_4k = sweep["metrics"]["4KiB"]["bytes_per_delivery_by_layer"].get(
            "consensus"
        )
        if cons_4k is None:
            problems.append(
                "scenarios.payload_sweep.metrics.4KiB"
                ".bytes_per_delivery_by_layer.consensus: missing"
            )
        elif cons_4k > CONSENSUS_BYTES_4K_BOUND:
            problems.append(
                f"scenarios.payload_sweep.metrics.4KiB"
                f".bytes_per_delivery_by_layer.consensus: {cons_4k} exceeds "
                f"hard bound {CONSENSUS_BYTES_4K_BOUND} — payload bodies are "
                f"leaking back into ordering traffic"
            )
    # Hard bounds for the dissemination sweep: the ring origin's share of
    # the wire bytes must stay balanced, and balancing must not cost
    # throughput (one-sided, bandwidth-disabled comparison).
    sweep = document["scenarios"].get("dissemination_sweep")
    if sweep is not None:
        ring_origin = sweep["metrics"]["ring"]["node_bytes"]["origin_over_mean"]
        if ring_origin is None:
            problems.append(
                "scenarios.dissemination_sweep.metrics.ring.node_bytes"
                ".origin_over_mean: missing"
            )
        elif ring_origin > RING_ORIGIN_BALANCE_BOUND:
            problems.append(
                f"scenarios.dissemination_sweep.metrics.ring.node_bytes"
                f".origin_over_mean: {ring_origin} exceeds hard bound "
                f"{RING_ORIGIN_BALANCE_BOUND} — the ring origin's NIC is "
                f"carrying more than its share of the payload bytes"
            )
        tput_flood = sweep["metrics"]["flood_nobw"]["throughput_msgs_per_s"]
        tput_ring = sweep["metrics"]["ring_nobw"]["throughput_msgs_per_s"]
        floor = tput_flood * DISSEMINATION_THROUGHPUT_FLOOR
        if tput_ring < floor:
            problems.append(
                f"scenarios.dissemination_sweep.metrics.ring_nobw"
                f".throughput_msgs_per_s: {tput_ring} below "
                f"{DISSEMINATION_THROUGHPUT_FLOOR:.0%} of flood's {tput_flood} "
                f"(floor {floor:.2f}) — ring dissemination regressed throughput"
            )
    return problems


# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=Path("BENCH_abgb.json"))
    parser.add_argument("--check", type=Path, default=None,
                        help="baseline JSON to guard against shape regressions")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="relative tolerance for numeric drift (default 0.25)")
    parser.add_argument("--profile", type=Path, default=None, metavar="FILE",
                        help="run scenarios under cProfile and write a top-N "
                             "cumulative-time table to FILE")
    parser.add_argument("--profile-top", type=int, default=25,
                        help="rows in the --profile table (default 25)")
    parser.add_argument("--only", action="append", choices=sorted(SCENARIOS),
                        help="run a subset of scenarios (repeatable)")
    parser.add_argument("--trace-dir", type=Path, default=None, metavar="DIR",
                        help="export one Chrome-trace JSON per scenario world "
                             "to DIR and fail on span-tree integrity errors")
    args = parser.parse_args(argv)

    profiler = cProfile.Profile() if args.profile is not None else None
    names = args.only or list(SCENARIOS)
    document = {"schema": SCHEMA, "meta": simplicity_meta(), "scenarios": {}}
    trace_problems: list[str] = []
    if args.trace_dir is not None:
        args.trace_dir.mkdir(parents=True, exist_ok=True)
    for name in names:
        print(f"[bench] {name} ...", flush=True)
        TRACE_WORLDS.clear()
        events_before = Scheduler.total_events_processed
        wall_start = time.perf_counter()
        if profiler is not None:
            profiler.enable()
        scenario = SCENARIOS[name]()
        if profiler is not None:
            profiler.disable()
        wall = time.perf_counter() - wall_start
        events = Scheduler.total_events_processed - events_before
        scenario["perf"] = {"sched_events_processed": events}
        document["scenarios"][name] = scenario
        print(f"[bench]   {events} events in {wall * 1_000.0:.0f} ms", flush=True)
        if args.trace_dir is not None:
            for label, world in TRACE_WORLDS:
                for problem in world.spans.check_integrity():
                    trace_problems.append(f"{label}: {problem}")
                out = args.trace_dir / f"{label}.json"
                world.trace.export_chrome(out)
                print(f"[bench]   trace {label}: {len(world.spans)} spans "
                      f"-> {out}", flush=True)
        TRACE_WORLDS.clear()
    args.out.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"[bench] wrote {args.out}")

    if profiler is not None:
        table = io.StringIO()
        stats = pstats.Stats(profiler, stream=table)
        stats.sort_stats("cumulative").print_stats(args.profile_top)
        args.profile.write_text(table.getvalue())
        print(f"[bench] wrote cProfile top-{args.profile_top} to {args.profile}")

    if trace_problems:
        print("[bench] SPAN-TREE INTEGRITY ERRORS:", file=sys.stderr)
        for problem in trace_problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    if args.trace_dir is not None:
        print(f"[bench] span-tree integrity: OK ({args.trace_dir})")

    if args.check is not None:
        problems = check(document, args.check, args.tolerance)
        if problems:
            print(f"[bench] SHAPE REGRESSION vs {args.check}:", file=sys.stderr)
            for problem in problems:
                print(f"  - {problem}", file=sys.stderr)
            return 1
        print(f"[bench] shape check vs {args.check}: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
