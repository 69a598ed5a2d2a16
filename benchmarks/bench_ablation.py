"""Ablation benches for the reproduction's own design choices.

Three knobs DESIGN.md calls out, each isolated:

* **rbcast relay** — relay-on-first-receipt costs O(n^2) messages but is
  what lets a broadcast survive its sender's crash;
* **generic broadcast fast-path timeout** — the fallback that closes a
  stage blocked by a silent member: smaller = snappier under crashes,
  at no cost in failure-free runs (it never fires there);
* **abcast batching** — the consensus-based abcast proposes its whole
  pending set per instance; we measure instances per message under
  increasing burst sizes to show batching amortisation.
"""

from common import once, report

from repro.broadcast.rbcast import ReliableBroadcast
from repro.core.new_stack import StackConfig, build_new_group
from repro.net.reliable import ReliableChannel
from repro.net.topology import LinkModel
from repro.sim.world import World


def rbcast_relay_ablation(relay):
    world = World(seed=60, default_link=LinkModel(1.0, 0.0))
    pids = world.spawn(3)
    delivered = {pid: [] for pid in pids}
    rbs = {}
    for pid in pids:
        channel = ReliableChannel(world.process(pid))
        rb = ReliableBroadcast(world.process(pid), channel, lambda: list(pids), relay=relay)
        rb.register("t", lambda o, p, m, pid=pid: delivered[pid].append(p))
        rbs[pid] = rb
    # Slow link to p02 so the sender's copy is still in flight at crash time.
    world.transport.set_link("p00", "p02", LinkModel(delay_min=10_000.0, delay_jitter=0.0))
    world.start()
    for i in range(5):
        rbs["p00"].rbcast("t", i)
    world.crash("p00", at=5.0)
    world.run_for(1_000.0)
    survivors_complete = len(delivered["p01"]) == 5 and len(delivered["p02"]) == 5
    return world.metrics.counters.get("net.sent"), survivors_complete


def timed_out_group(world, timeout):
    """Three stacks whose generic broadcast closes a blocked stage after
    ``timeout`` ms (a constant of the stack, set here on each instance)."""
    stacks = build_new_group(world, 3, config=StackConfig(suspicion_timeout=100_000.0))
    for stack in stacks.values():
        stack.gbcast.fast_path_timeout = timeout
    return stacks


def fast_path_timeout_ablation(timeout):
    world = World(seed=61)
    stacks = timed_out_group(world, timeout)
    world.start()
    world.run_for(50.0)
    world.crash("p02")  # silent member blocks the all-ack fast path
    start = world.now
    stacks["p00"].gbcast.gbcast_payload("blocked?", "rbcast")
    assert world.run_until(
        lambda: any(m.payload == "blocked?" for m, _p in stacks["p00"].gbcast.delivered_log),
        timeout=600_000,
    )
    stuck_latency = world.now - start

    # Failure-free control: the timeout never fires.
    world2 = World(seed=61)
    stacks2 = timed_out_group(world2, timeout)
    world2.start()
    stacks2["p00"].gbcast.gbcast_payload("free", "rbcast")
    assert world2.run_until(
        lambda: any(m.payload == "free" for m, _p in stacks2["p00"].gbcast.delivered_log),
        timeout=60_000,
    )
    free_endstages = world2.metrics.counters.get("gbcast.endstages")
    return stuck_latency, free_endstages


def batching_ablation(burst):
    world = World(seed=62)
    stacks = build_new_group(world, 3)
    world.start()
    for i in range(burst):
        stacks["p00"].abcast.abcast(world.process("p00").msg_ids.message(("b", i)))
    assert world.run_until(
        lambda: all(
            len([m for m in s.abcast.delivered_log if m.msg_class == "default"]) == burst
            for s in stacks.values()
        ),
        timeout=300_000,
    )
    instances = world.metrics.counters.get("abcast.instances") / 3  # per process
    return instances / burst


def test_ablation_rbcast_relay(benchmark, capsys):
    def run_all():
        return [
            ["relay ON"] + list(rbcast_relay_ablation(True)),
            ["relay OFF"] + list(rbcast_relay_ablation(False)),
        ]

    rows = once(benchmark, run_all)
    report(
        capsys,
        "Ablation 1  rbcast relay-on-first-receipt (sender crashes mid-broadcast)",
        ["variant", "datagrams sent", "survivors all delivered"],
        rows,
        note="Relaying costs extra messages but is what makes the broadcast "
        "survive the sender's crash — required for uniform delivery.",
    )
    assert rows[0][2] is True
    assert rows[1][2] is False
    assert rows[1][1] < rows[0][1]


def test_ablation_fast_path_timeout(benchmark, capsys):
    def run_all():
        rows = []
        for timeout in (100.0, 400.0, 1_600.0):
            stuck, free_endstages = fast_path_timeout_ablation(timeout)
            rows.append([f"{timeout:.0f}", stuck, free_endstages])
        return rows

    rows = once(benchmark, run_all)
    report(
        capsys,
        "Ablation 2  generic broadcast fast-path timeout (one member silent)",
        ["fast-path timeout ms", "delivery latency ms", "stage closures (failure-free control)"],
        rows,
        note="The timeout bounds how long a silent member can stall the "
        "all-ack fast path; it never fires in failure-free runs, so it is "
        "pure insurance.",
    )
    assert rows[0][1] < rows[2][1]
    assert all(r[2] == 0 for r in rows)


def stability_ablation(interval):
    from repro.net.reliable import ReliableChannel
    from repro.broadcast.rbcast import ReliableBroadcast

    world = World(seed=63)
    pids = world.spawn(3)
    rbs = {}
    for pid in pids:
        channel = ReliableChannel(world.process(pid))
        rb = ReliableBroadcast(
            world.process(pid), channel, lambda: list(pids), stability_interval=interval
        )
        rb.register("t", lambda o, p, m: None)
        rbs[pid] = rb
    world.start()
    peak = 0
    for batch in range(8):
        for i in range(25):
            rbs["p00"].rbcast("t", (batch, i))
        world.run_for(700.0)
        peak = max(peak, max(rb.seen_size() for rb in rbs.values()))
    world.run_for(2_000.0)
    final = max(rb.seen_size() for rb in rbs.values())
    gossip = world.metrics.counters.get("net.sent.port.rc")
    return peak, final, gossip


def test_ablation_stability_gc(benchmark, capsys):
    def run_all():
        rows = []
        for label, interval in (("GC off", None), ("GC 500 ms", 500.0), ("GC 150 ms", 150.0)):
            peak, final, _ = stability_ablation(interval)
            rows.append([label, peak, final])
        return rows

    rows = once(benchmark, run_all)
    report(
        capsys,
        "Ablation 4  stability-based dedup GC (200 broadcasts, 3 members)",
        ["variant", "peak dedup entries", "entries after quiescence"],
        rows,
        note="Without stability gossip the duplicate-suppression set grows "
        "with every broadcast ever made (Ensemble's `stable` component "
        "exists for a reason); with it, memory is bounded and drains to "
        "zero at quiescence.",
    )
    assert rows[0][2] == 200      # off: everything retained
    assert rows[1][2] == 0        # on: fully drained
    assert rows[2][1] <= rows[1][1]


def quorum_ablation(quorum):
    from repro.core.new_stack import StackConfig, build_new_group
    from repro.gbcast.conflict import PASSIVE_REPLICATION
    from repro.monitoring.component import MonitoringPolicy

    config = StackConfig(
        quorum_fast_path=quorum,
        monitoring=MonitoringPolicy(exclusion_timeout=100_000.0),
    )
    world = World(seed=64)
    stacks = build_new_group(world, 4, conflict=PASSIVE_REPLICATION, config=config)
    world.start()
    world.run_for(100.0)
    world.crash("p03")
    world.run_for(500.0)
    for i in range(6):
        stacks["p00"].gbcast.gbcast_payload(("u", i), "update")
    alive = ["p00", "p01", "p02"]
    assert world.run_until(
        lambda: all(
            len([m for m, _p in stacks[p].gbcast.delivered_log if m.msg_class == "update"]) == 6
            for p in alive
        ),
        timeout=120_000,
    )
    stats = world.metrics.latency.stats("gbcast.update")
    return [
        stats.mean,
        world.metrics.counters.get("gbcast.endstages"),
        world.metrics.counters.get("consensus.proposals"),
    ]


def test_ablation_quorum_fast_path(benchmark, capsys):
    def run_all():
        return [
            ["all-ack fast path"] + quorum_ablation(False),
            ["quorum fast path (n=4, f=1)"] + quorum_ablation(True),
        ]

    rows = once(benchmark, run_all)
    report(
        capsys,
        "Ablation 5  all-ack vs. quorum fast path (one of four members crashed)",
        ["variant", "update latency ms", "stage closures", "consensus proposals"],
        rows,
        note="With n > 3f, the quorum fast path ([1]) keeps delivering "
        "commutative traffic through f crashes with NO consensus at all; "
        "the all-ack variant must close a stage (one atomic broadcast) to "
        "get past the dead member.",
    )
    assert rows[1][2] == 0 and rows[1][3] == 0   # quorum: pure fast path
    assert rows[0][2] > 0                        # all-ack: closures needed
    assert rows[1][1] < rows[0][1]               # and quorum is faster


def test_ablation_abcast_batching(benchmark, capsys):
    def run_all():
        return [[burst, batching_ablation(burst)] for burst in (1, 8, 32)]

    rows = once(benchmark, run_all)
    report(
        capsys,
        "Ablation 3  consensus-based abcast batching",
        ["burst size", "consensus instances per message"],
        rows,
        note="Proposing the whole pending set per instance amortises "
        "consensus: instances/message falls well below 1 for bursts.",
    )
    assert rows[2][1] < rows[0][1]
    assert rows[2][1] < 0.5
