"""Ablation benches for the reproduction's own design choices.

Four knobs DESIGN.md calls out, each isolated:

* **rbcast relay** — relay-on-first-receipt costs O(n^2) messages but is
  what lets a broadcast survive its sender's crash;
* **generic broadcast fast-path timeout** — the fallback that closes a
  stage blocked by a silent member (a dead member costs the all-ack
  fast path a stage closure): smaller = snappier under crashes, at no
  cost in failure-free runs (it never fires there);
* **abcast batching** — the consensus-based abcast proposes its whole
  pending set per instance; we measure instances per message under
  increasing burst sizes to show batching amortisation;
* **stability GC** — gossip that bounds rbcast's duplicate-suppression
  memory.
"""

from common import Group, Result

from repro.broadcast.rbcast import ReliableBroadcast
from repro.core.new_stack import StackConfig
from repro.net.reliable import ReliableChannel
from repro.net.topology import LinkModel
from repro.sim.world import World


def rbcast_group(world, **rbcast):
    """Three bare reliable-broadcast endpoints (no stack above them)."""
    pids = world.spawn(3)
    return {
        pid: ReliableBroadcast(world.process(pid), ReliableChannel(world.process(pid)),
                               lambda: list(pids), **rbcast)
        for pid in pids
    }


def rbcast_relay_ablation(relay):
    world = World(seed=60, default_link=LinkModel(1.0, 0.0))
    rbs = rbcast_group(world, relay=relay)
    delivered = {pid: [] for pid in rbs}
    for pid, rb in rbs.items():
        rb.register("t", lambda o, p, m, pid=pid: delivered[pid].append(p))
    # Slow link to p02 so the sender's copy is still in flight at crash time.
    world.transport.set_link("p00", "p02", LinkModel(delay_min=10_000.0, delay_jitter=0.0))
    world.start()
    for i in range(5):
        rbs["p00"].rbcast("t", i)
    world.crash("p00", at=5.0)
    world.run_for(1_000.0)
    survivors_complete = len(delivered["p01"]) == 5 and len(delivered["p02"]) == 5
    return world.metrics.counters.get("net.sent"), survivors_complete


def timed_out_group(timeout):
    """Three stacks whose generic broadcast closes a blocked stage after
    ``timeout`` ms (a constant of the stack, set here on each instance)."""
    g = Group("new", 3, seed=61, config=StackConfig(suspicion_timeout=100_000.0))
    for stack in g.stacks.values():
        stack.gbcast.fast_path_timeout = timeout
    return g


def fast_path_timeout_ablation(timeout):
    g = timed_out_group(timeout)
    g.world.run_for(50.0)
    # A silent member blocks the all-ack fast path.
    stuck_latency = g.after_crash("p02", "p00", "blocked?", "rbcast")
    stuck_endstages = g.world.metrics.counters.get("gbcast.endstages")

    # Failure-free control: the timeout never fires.
    g = timed_out_group(timeout)
    g.send("p00", "free", "rbcast")
    g.drain(1, ["p00"])
    return stuck_latency, stuck_endstages, g.world.metrics.counters.get("gbcast.endstages")


def batching_ablation(burst):
    g = Group("new-abcast", 3, seed=62)
    for i in range(burst):
        g.send("p00", ("b", i))
    g.drain(burst)
    instances = g.world.metrics.counters.get("abcast.instances") / 3  # per process
    return instances / burst


def stability_ablation(interval):
    world = World(seed=63)
    rbs = rbcast_group(world, stability_interval=interval)
    for rb in rbs.values():
        rb.register("t", lambda o, p, m: None)
    world.start()
    peak = 0
    for batch in range(8):
        for i in range(25):
            rbs["p00"].rbcast("t", (batch, i))
        world.run_for(700.0)
        peak = max(peak, max(rb.seen_size() for rb in rbs.values()))
    world.run_for(2_000.0)
    final = max(rb.seen_size() for rb in rbs.values())
    return peak, final


def scenario_ablation() -> Result:
    r = Result()
    rows = [
        ["relay ON"] + list(rbcast_relay_ablation(True)),
        ["relay OFF"] + list(rbcast_relay_ablation(False)),
    ]
    r.table(
        "Ablation 1  rbcast relay-on-first-receipt (sender crashes mid-broadcast)",
        ["variant", "datagrams sent", "survivors all delivered"],
        rows,
        note="Relaying costs extra messages but is what makes the broadcast "
        "survive the sender's crash — required for uniform delivery.",
    )
    r.check("relay_makes_broadcast_survive_sender", "survivors all delivered",
            {row[0]: row[2] for row in rows}, "==", {"relay ON": True, "relay OFF": False})
    r.check("relay_costs_datagrams", "datagrams sent, relay OFF vs ON",
            rows[1][1], "<", rows[0][1])

    rows = [
        [f"{timeout:.0f}", *fast_path_timeout_ablation(timeout)]
        for timeout in (100.0, 400.0, 1_600.0)
    ]
    r.table(
        "Ablation 2  generic broadcast fast-path timeout (one member silent)",
        ["fast-path timeout ms", "delivery latency ms", "stage closures (one silent)",
         "stage closures (failure-free control)"],
        rows,
        note="A silent member blocks the all-ack fast path until a stage "
        "closure (one atomic broadcast) gets past it; the timeout bounds how "
        "long that takes, and it never fires in failure-free runs, so it is "
        "pure insurance.",
    )
    r.check("smaller_timeout_unblocks_sooner", "delivery latency ms, timeout 100 vs 1600",
            rows[0][1], "<", rows[2][1])
    r.check("silent_member_costs_closures", "stage closures with one member silent",
            min(row[2] for row in rows), ">", 0)
    r.check("timeout_never_fires_failure_free", "stage closures without a crash",
            {row[0]: row[3] for row in rows}, "==", 0)

    rows = [[burst, batching_ablation(burst)] for burst in (1, 8, 32)]
    r.table(
        "Ablation 3  consensus-based abcast batching",
        ["burst size", "consensus instances per message"],
        rows,
        note="Proposing the whole pending set per instance amortises "
        "consensus: instances/message falls well below 1 for bursts.",
    )
    r.check("batching_amortises_consensus", "instances per message, burst 32 vs 1",
            rows[2][1], "<", rows[0][1])
    r.check("burst_shares_instances", "instances per message at burst 32", rows[2][1], "<", 0.5)

    rows = []
    for label, interval in (("GC off", None), ("GC 500 ms", 500.0), ("GC 150 ms", 150.0)):
        peak, final = stability_ablation(interval)
        rows.append([label, peak, final])
    r.table(
        "Ablation 4  stability-based dedup GC (200 broadcasts, 3 members)",
        ["variant", "peak dedup entries", "entries after quiescence"],
        rows,
        note="Without stability gossip the duplicate-suppression set grows "
        "with every broadcast ever made (Ensemble's `stable` component "
        "exists for a reason); with it, memory is bounded and drains to "
        "zero at quiescence.",
    )
    r.check("gc_bounds_dedup_memory", "entries after quiescence",
            {row[0]: row[2] for row in rows[:2]}, "==", {"GC off": 200, "GC 500 ms": 0})
    r.check("faster_gc_lower_peak", "peak dedup entries, GC 150 ms vs 500 ms",
            rows[2][1], "<=", rows[1][1])
    return r
