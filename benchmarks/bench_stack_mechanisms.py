"""The reproduction's own mechanisms, measured where ``BENCH_abgb.json``
can guard them: consensus pipelining, id-only ordering (dissemination
carries the bodies), ring dissemination with ordering traffic off the
overlay, and the failure detector's idle cost as the group grows.

None of these is a paper artefact; each scenario prints no table and
states its claims as checks, like the §4 scenarios next to it.
"""

from __future__ import annotations

import math

from common import (
    Check,
    Group,
    Result,
    bytes_by_node,
    causal_trees_complete,
    check_hygiene,
    claim,
    critical_path_block,
    decision_path_block,
    round0_dominates,
    round_json,
    teardown_leaks,
    world_metrics,
)

from repro.core.new_stack import StackConfig, build_new_group
from repro.net.topology import LinkModel
from repro.net.wire import Blob
from repro.sim.world import World

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


def run_traffic(window: int, seed: int = 23, max_batch: int = 4,
                payload_bytes: int | None = None) -> tuple[dict, World]:
    """The bursty staggered-senders workload used for the pipelining
    comparison (mirrors ``tests/abcast/test_pipelining.py``); returns its
    metrics block and its world.

    ``payload_bytes`` models the application body size with a
    :class:`repro.net.wire.Blob` riding each payload — same schedule,
    same RNG draws, only the wire-byte charges change (the 64 B vs
    4 KiB sweep).
    """
    config = StackConfig(abcast_window=window, abcast_max_batch=max_batch)
    g = Group("new-abcast", 3, seed=seed, link=LinkModel(3.0, 8.0), config=config)
    for i in range(10):
        for pid in list(g.stacks):
            body = f"{pid}:{i}"
            g.send(pid, body if payload_bytes is None else (body, Blob(payload_bytes)),
                   at=float(5 * i))
    total = 10 * len(g.stacks)
    g.drain(total)
    world = g.world
    leaked = teardown_leaks(world)
    counters = world.metrics.counters
    metrics = world_metrics(world, delivered=total * len(g.stacks), leaked=leaked)
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
    metrics["decision_path"] = decision_path_block(world, g.stacks)
    return metrics, world


def check_traffic_runs(r: Result, runs: dict[str, dict]) -> None:
    """What every run of the pipelining workload must show, per run:
    hygiene, complete causal trees, and round 0 deciding (almost) every
    instance of a failure-free run."""
    check_hygiene(r, runs)
    for label, run in runs.items():
        r.add(f"causal_trees_complete_{label}", causal_trees_complete(run["critical_path"]))
        r.add(f"round0_dominates_{label}", round0_dominates(run["decision_path"]))


def endstage_ordering_bytes(payload_bytes: int, ops: int = 200) -> int:
    """Wire bytes of the ordering layers (``net.bytes.abcast`` +
    ``net.bytes.consensus``) for a fixed all-conflicting generic
    broadcast schedule: three senders, an op every 7 ms.

    What is ordered is an ENDSTAGE of ids, so the sum must not depend on
    the size of the bodies at all (``tests/integration/test_bench_guard``
    makes the same two runs).
    """
    g = Group("new", 3, seed=7, link=LinkModel(3.0, 8.0))
    for i in range(ops):
        g.send(f"p0{i % 3}", ("op", i, Blob(payload_bytes)), at=20.0 + 7.0 * i)
    g.drain(ops)
    g.world.run_for(200.0)
    counters = g.world.metrics.counters
    return counters.get("net.bytes.abcast") + counters.get("net.bytes.consensus")


def scenario_pipelining() -> Result:
    (serial, serial_world), (pipelined, pipelined_world) = run_traffic(1), run_traffic(4)
    r = Result("pipelining", metrics={"w1": serial, "w4": pipelined}, traced=[
        ("pipelining_w1", serial_world), ("pipelining_w4", pipelined_world)])
    r.check("w4_improves_p50", "a-delivery p50 ms, W=4 vs W=1",
            pipelined["latency_ms"]["p50"], "<", serial["latency_ms"]["p50"])
    r.check("w4_drains_no_slower", "drain ms, W=4 vs W=1",
            pipelined["duration_ms"], "<=", serial["duration_ms"])
    r.check("w4_actually_pipelined", "W=4 instances pipelined",
            pipelined["instances_pipelined"], ">", 0)
    check_traffic_runs(r, {"w1": serial, "w4": pipelined})
    # Traffic-aware FD: the workload's own datagrams carry the liveness
    # evidence, so the explicit-heartbeat cost per delivery must stay
    # under the hard bound...
    r.check("fd_cost_bounded_w1", "W=1 fd msgs/delivery",
            serial["msgs_per_delivery_by_layer"].get("fd"), "<=", FD_W1_BOUND)
    # ...and both mechanisms must actually be exercising: beats
    # suppressed by recent sends, and arrivals refreshing the FD.
    r.check("fd_suppression_active", "W=1 fd",
            {"suppressed": serial["fd"]["suppressed"],
             "tap refreshes": serial["fd"]["tap_refreshes"]}, ">", 0)
    # Fast-path guard: the fast path actually fired.
    r.check("fast_path_active", "fast-path proposals",
            {"w1": serial["decision_path"]["fast_path_proposals"],
             "w4": pipelined["decision_path"]["fast_path_proposals"]}, ">", 0)
    return r


def scenario_payload_sweep() -> Result:
    """Dissemination vs. ordering at 64 B and 4 KiB application bodies.

    Same seed, same schedule, same RNG draws — only the modelled payload
    size changes (a Blob rides each message).  With id-only consensus
    proposals the *ordering* byte cost (consensus layer) must stay flat
    across the sweep, while the *dissemination* cost (abcast layer,
    which carries each body exactly once over rbcast) scales with the
    payload — the Ring Paxos separation made measurable.
    """
    (small, small_world), (large, large_world) = (
        run_traffic(window=4, payload_bytes=64), run_traffic(window=4, payload_bytes=4096))
    ordering_small = small["bytes_per_delivery_by_layer"].get("consensus", 0.0) or 0.0
    ordering_large = large["bytes_per_delivery_by_layer"].get("consensus", 0.0) or 0.0
    body_small = small["bytes_per_delivery_by_layer"].get("abcast", 0.0) or 0.0
    body_large = large["bytes_per_delivery_by_layer"].get("abcast", 0.0) or 0.0
    endstage_small, endstage_large = endstage_ordering_bytes(64), endstage_ordering_bytes(4096)
    r = Result("payload-sweep", traced=[
        ("payload_sweep_64B", small_world), ("payload_sweep_4KiB", large_world)])
    r.metrics = {
        "64B": small,
        "4KiB": large,
        "endstage_ordering_bytes": {"64B": endstage_small, "4KiB": endstage_large},
        "ordering_bytes_ratio_4k_over_64": round_json(
            ordering_large / ordering_small if ordering_small else math.nan, 3
        ),
    }
    # The headline claim: consensus traffic carries id vectors, so its
    # byte cost does not grow with the payload — relative to 64 B...
    r.check("ordering_bytes_flat", "consensus bytes/delivery, 4 KiB vs 1.10 × 64 B",
            ordering_large, "<=", ordering_small * 1.10)
    # ...and absolutely, so payload bodies can never leak back into
    # ordering traffic by way of a re-pinned baseline.
    r.check("consensus_bytes_bounded_4k", "consensus bytes/delivery at 4 KiB",
            large["bytes_per_delivery_by_layer"].get("consensus"), "<=",
            CONSENSUS_BYTES_4K_BOUND)
    # Bodies ride dissemination — and only dissemination: the abcast
    # layer's byte cost grows by at least one body's worth of the sweep
    # delta per delivery.
    r.check("dissemination_carries_payload",
            "abcast bytes/delivery, 4 KiB − 64 B, vs half the payload delta",
            body_large - body_small, ">=", (4096 - 64) * 0.5)
    r.check("ordering_cheaper_than_dissemination_at_4k",
            "bytes/delivery at 4 KiB, consensus vs abcast", ordering_large, "<", body_large)
    # Generic broadcast orders ENDSTAGEs of ids: the bytes its ordering
    # layers put on the wire are exactly payload-blind (and a zero
    # reading is no reading).
    r.check("endstage_bytes_payload_blind", "abcast + consensus bytes, 4 KiB vs 64 B",
            endstage_large, "==", endstage_small or None)
    check_traffic_runs(r, {"64B": small, "4KiB": large})
    return r


def run_dissemination(
    policy: str,
    bandwidth: float | None,
    seed: int = 29,
    count: int = DISSEMINATION_COUNT,
    rounds: int = DISSEMINATION_ROUNDS,
    payload_bytes: int = 4096,
) -> tuple[dict, World]:
    """Single-origin 4 KiB workload for the dissemination sweep; returns
    its metrics block and its world.

    One member (p00) broadcasts every message — the worst case for flood
    dissemination, whose origin unicasts each body to all n−1 members —
    so the per-node sent-byte skew is the thing being measured, not
    averaged away by staggered senders.  ``bandwidth`` enables the
    ``LinkModel.bytes_per_ms`` term so the serialisation cost of the 4 KiB
    bodies is part of the schedule, exactly the regime where balancing
    the origin's NIC pays.
    """
    g = Group("new-abcast", count, seed=seed,
              link=LinkModel(3.0, 8.0, bytes_per_ms=bandwidth),
              config=StackConfig(dissemination=policy))
    for i in range(rounds):
        g.send("p00", (f"p00:{i}", Blob(payload_bytes)), at=float(5 * i))
    g.drain(rounds)
    world = g.world
    leaked = teardown_leaks(world)
    delivered = rounds * count
    metrics = world_metrics(world, delivered=delivered, leaked=leaked)
    counters = world.metrics.counters
    per_node = bytes_by_node(world)
    per_delivery = {pid: per_node.get(pid, 0) / delivered for pid in sorted(g.stacks)}
    mean = sum(per_delivery.values()) / len(per_delivery)
    peak = max(per_delivery.values())
    origin = per_delivery["p00"]
    metrics["node_bytes"] = {
        "per_delivery": {pid: round_json(v) for pid, v in per_delivery.items()},
        "max_node_bytes_per_delivery": round_json(peak),
        "mean_node_bytes_per_delivery": round_json(mean),
        "fairness_ratio": round_json(peak / mean if mean else math.nan, 3),
        "origin_bytes_per_delivery": round_json(origin),
        "origin_over_mean": round_json(origin / mean if mean else math.nan, 3),
    }
    metrics["rb"] = {
        "forwarded": counters.get("rb.forwarded"),
        "reroutes": counters.get("rb.reroutes"),
        "nacks_sent": counters.get("rb.nacks_sent"),
    }
    metrics["decision_path"] = decision_path_block(world, g.stacks)
    return metrics, world


def control_goes_direct(ring: dict) -> Check:
    """``rb.forwarded`` counts bodies only: one forward per body and
    forwarding member (single origin p00 = the head, so the ring is the
    plain chain with n − 2 forwarders).  A DECIDE walking the overlay
    would add its own forwards on top."""
    return claim("ring rb.forwarded vs bodies × forwarding members",
                 ring["rb"]["forwarded"], "==",
                 DISSEMINATION_ROUNDS * (DISSEMINATION_COUNT - 2))


def ring_decides_like_flood(ring: dict, flood: dict, label: str = "") -> Check:
    return claim(
        f"p50 decide ms{label}, ring vs {RING_DECIDE_OVER_FLOOD_BOUND} × flood",
        ring["decision_path"]["p50_decide_ms"], "<=",
        flood["decision_path"]["p50_decide_ms"] * RING_DECIDE_OVER_FLOOD_BOUND,
    )


def scenario_dissemination_sweep() -> Result:
    """Flood vs ring payload routing (schema v6 tentpole).

    With the bandwidth term enabled, the sweep measures where the wire
    bytes *sit*: a flood origin's NIC carries ~n−1 payload copies per
    broadcast (origin-over-mean ≈ n−1) while ring spreads each body to
    exactly one send per node (origin-over-mean ≈ 1).  A bandwidth-disabled flood/ring pair backs the
    one-sided throughput rule: balancing must not cost end-to-end
    throughput, because ordering is decoupled from dissemination.
    """
    bw = 2_000.0  # bytes/ms: a 4 KiB body costs ~2 ms of serialisation
    r = Result("dissemination-sweep")
    runs = {"flood": ("flood", bw), "ring": ("ring", bw),
            "flood_nobw": ("flood", None), "ring_nobw": ("ring", None)}
    for label, (policy, bandwidth) in runs.items():
        r.metrics[label], world = run_dissemination(policy, bandwidth)
        r.traced.append((f"dissemination_{label}", world))
    flood, ring = r.metrics["flood"], r.metrics["ring"]
    flood_nobw, ring_nobw = r.metrics["flood_nobw"], r.metrics["ring_nobw"]
    tput_flood = flood_nobw["throughput_msgs_per_s"]
    tput_ring = ring_nobw["throughput_msgs_per_s"]
    r.metrics["ring_throughput_fraction_of_flood"] = round_json(
        tput_ring / tput_flood if tput_flood else math.nan, 3
    )
    # The tentpole claim: under ring the origin's sent bytes per
    # delivery sit within the hard bound of the per-node mean...
    r.check("origin_bytes_balanced", "ring origin_over_mean",
            ring["node_bytes"]["origin_over_mean"], "<=", RING_ORIGIN_BALANCE_BOUND)
    # ...whereas the flood origin's NIC carries nearly every payload
    # copy (~n−1× the mean on a single-origin workload).
    r.check("flood_origin_concentrated", "flood origin_over_mean",
            flood["node_bytes"]["origin_over_mean"], ">", RING_ORIGIN_BALANCE_BOUND)
    r.check("ring_flatter_than_flood", "fairness ratio, ring vs flood / 2",
            ring["node_bytes"]["fairness_ratio"], "<", flood["node_bytes"]["fairness_ratio"] / 2)
    # The overlay actually carried the payloads hop by hop...
    r.check("overlay_forwarding_active", "ring rb.forwarded", ring["rb"]["forwarded"], ">", 0)
    # ...and nothing had to be asked for again.
    r.check("no_failure_free_nacks", "ring rb.nacks_sent", ring["rb"]["nacks_sent"], "==", 0)
    # What orders goes direct: nobody forwards a DECIDE, and the
    # decision is as far away over the ring as it is over flood.
    r.add("control_goes_direct", control_goes_direct(ring))
    r.add("ring_decides_like_flood", ring_decides_like_flood(ring, flood)
          & ring_decides_like_flood(ring_nobw, flood_nobw, " (no bandwidth term)"))
    # One-sided throughput rule (bandwidth disabled): the ring's extra
    # hops must not dent end-to-end throughput.
    r.check("ring_throughput_holds",
            f"msgs/s without bandwidth term, ring vs {DISSEMINATION_THROUGHPUT_FLOOR} × flood",
            tput_ring, ">=", tput_flood * DISSEMINATION_THROUGHPUT_FLOOR)
    check_hygiene(r, {label: r.metrics[label] for label in runs})
    return r


def run_fd_idle(count: int) -> dict:
    """Keep-alive datagrams of an idle group over one simulated second
    (after a 200 ms warm-up): on the star — the links to and from the
    watcher, which everybody watches — on the mesh between the others,
    and sent plus received at the busiest member."""
    world = World(seed=1, default_link=LinkModel(3.0, 8.0), trace_enabled=False)
    head = sorted(build_new_group(world, count))[0]
    handled: dict[str, int] = {}
    links = {"star": 0, "mesh": 0}
    send = world.transport.send

    def spy(route, port, payload, *args):
        if port == "fd.hb" and world.now >= 200.0:
            src, dst = route.src, route.dst
            handled[src] = handled.get(src, 0) + 1
            handled[dst] = handled.get(dst, 0) + 1
            links["star" if head in (src, dst) else "mesh"] += 1
        send(route, port, payload, *args)

    world.transport.send = spy
    world.run_for(1_200.0)
    return {
        "keepalives_per_s": links["star"] + links["mesh"],
        "star_per_s": links["star"],
        "mesh_per_s": links["mesh"],
        "busiest_member_per_s": max(handled.values()),
    }


def scenario_fd_idle_sweep() -> Result:
    """What an idle group pays for failure detection as it grows.  The
    small-timeout keep-alives form a star at the watcher (2(n-1) links at
    ``HEARTBEAT_INTERVAL``): linear in n, bounded by the per-member cost
    measured at n = 5.  What is left of the n(n-1) mesh is the exclusion
    monitor's and stays quadratic, 33 times slower: every directed pair
    without the watcher, once per exclusion timeout / 4 — bounded on its
    own.  The all-pairs mesh read about 67 n(n-1) in total (1 317 at
    n = 5)."""
    runs = {f"n{count}": run_fd_idle(count) for count in FD_IDLE_SIZES}
    per_member = runs["n5"]["star_per_s"] / 5
    per_pair = 4_000.0 / StackConfig().monitoring.exclusion_timeout
    r = Result("fd-idle-sweep", metrics=runs)
    r.check("fd_idle_cost_linear_in_n",
            f"star keep-alives/s vs n × {per_member:g} × {FD_IDLE_LINEAR_SLACK}",
            {n: run["star_per_s"] for n, run in runs.items()}, "<=",
            {f"n{c}": per_member * c * FD_IDLE_LINEAR_SLACK for c in FD_IDLE_SIZES})
    r.check("fd_idle_mesh_at_exclusion_cadence",
            f"mesh keep-alives/s vs (n-1)(n-2) pairs × {per_pair:g}",
            {n: run["mesh_per_s"] for n, run in runs.items()}, "<=",
            {f"n{c}": (c - 1) * (c - 2) * per_pair for c in FD_IDLE_SIZES})
    return r
