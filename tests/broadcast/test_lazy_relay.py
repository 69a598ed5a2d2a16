"""Lazy rbcast relay: O(n) datagrams failure-free, repair only on
suspicion — and the same delivery guarantee under a sender crash."""

from repro.broadcast.rbcast import ReliableBroadcast, origin_pid
from repro.fd.heartbeat import HeartbeatFailureDetector
from repro.net.reliable import ReliableChannel
from repro.net.topology import LinkModel
from repro.sim.world import World

from tests.conftest import edge_nacks, run_until


def lazy_world(count=3, seed=1, link=None, suspicion_timeout=100.0, policy="lazy", trace=True):
    """channel + fd + rbcast per process, rbcast built with the monitor as
    in the stack: no attribute is set on a component after construction."""
    world = World(seed=seed, default_link=link or LinkModel(1.0, 1.0), trace_enabled=trace)
    pids = world.spawn(count)
    rbs, delivered = {}, {pid: [] for pid in pids}
    for pid in pids:
        process = world.process(pid)
        channel = ReliableChannel(process)
        fd = HeartbeatFailureDetector(process, lambda p=pids: list(p))
        rb = ReliableBroadcast(
            process, channel, lambda p=pids: list(p), relay_policy=policy,
            monitor=fd.monitor(lambda p=pids: list(p), suspicion_timeout),
        )
        rb.register("t", lambda o, p, m, pid=pid: delivered[pid].append(p))
        rbs[pid] = rb
    return world, rbs, delivered


def test_origin_pid_strips_decorations():
    assert origin_pid("p00!rb") == "p00"
    assert origin_pid("p07~3!rb") == "p07"


def test_rejects_unknown_relay_policy():
    world = World(seed=9)
    world.spawn(1)
    channel = ReliableChannel(world.process("p00"))
    try:
        ReliableBroadcast(world.process("p00"), channel, lambda: ["p00"], relay_policy="sometimes")
        assert False, "expected ValueError"
    except ValueError:
        pass


def test_lazy_policy_never_relays_failure_free():
    world, rbs, delivered = lazy_world(count=5, seed=2)
    world.start()
    for i in range(10):
        rbs["p00"].rbcast("t", i)
    assert run_until(world, lambda: all(len(d) == 10 for d in delivered.values()))
    assert world.metrics.counters.get("rb.relayed") == 0
    assert world.metrics.counters.get("rb.nacks_sent") == 0


def test_lazy_costs_less_than_eager_failure_free():
    costs = {}
    for policy in ("eager", "lazy"):
        world, rbs, delivered = lazy_world(count=5, seed=3, policy=policy)
        world.start()
        for i in range(10):
            rbs["p00"].rbcast("t", i)
        assert run_until(world, lambda: all(len(d) == 10 for d in delivered.values()))
        costs[policy] = world.metrics.counters.get("net.sent.port.rc")
    # Eager pays the O(n²) relay flood; lazy only the sender's O(n) sends
    # (plus acks/heartbeat-free channel traffic on both sides).
    assert costs["lazy"] < costs["eager"] / 2


def test_lazy_relay_delivers_under_sender_crash():
    # Mirror of test_relay_survives_sender_crash_mid_broadcast: the
    # sender's packet reaches only p01 before the crash.  Under the lazy
    # policy nothing is relayed until the FD suspects p00 — then p02 asks
    # p01 for what it lacks, and delivers p01's retained copy.
    world, rbs, delivered = lazy_world(seed=4, link=LinkModel(1.0, 0.0))
    world.transport.set_link("p00", "p02", LinkModel(delay_min=10_000.0, delay_jitter=0.0))
    world.start()
    rbs["p00"].rbcast("t", "survivor")
    world.crash("p00", at=5.0)
    # Before suspicion (timeout 100 ms) p02 cannot have the message.
    world.run_for(50.0)
    assert delivered["p01"] == ["survivor"] and delivered["p02"] == []
    assert world.metrics.counters.get("rb.relayed") == 0
    assert run_until(
        world,
        lambda: delivered["p02"] == ["survivor"],
        timeout=5_000,
    )
    # One NACK per unsuspected peer on each survivor's edge.
    assert edge_nacks(world, "p01", "p00") == ["p02"]
    assert edge_nacks(world, "p02", "p00") == ["p01"]
    assert world.metrics.counters.get("rb.overlay_repairs") >= 1


def test_a_suspicion_edge_under_eager_relay_asks_for_nothing():
    # Eager flood relays every packet on first receipt: there is nothing
    # a suspicion edge could repair, so it sends no NACK.
    world, rbs, delivered = lazy_world(seed=4, link=LinkModel(1.0, 0.0), policy="eager")
    world.start()
    rbs["p00"].rbcast("t", "relayed")
    world.crash("p00", at=5.0)
    assert run_until(
        world,
        lambda: all("p00" in rbs[q].monitor.suspects for q in ("p01", "p02")),
        timeout=5_000,
    )
    assert delivered["p01"] == delivered["p02"] == ["relayed"]
    assert world.metrics.counters.get("rb.nacks_sent") == 0


def test_relay_on_receipt_while_origin_suspected():
    # A packet that arrives (via a slow link) *after* its origin is
    # already suspected is relayed on first receipt, as under eager.
    world, rbs, delivered = lazy_world(seed=5, link=LinkModel(1.0, 0.0))
    # p00 -> p01 is slow: the packet lands once p00 is already suspect.
    world.transport.set_link("p00", "p01", LinkModel(delay_min=500.0, delay_jitter=0.0))
    world.transport.set_link("p00", "p02", LinkModel(delay_min=10_000.0, delay_jitter=0.0))
    world.start()
    rbs["p00"].rbcast("t", "late")
    world.crash("p00", at=5.0)
    assert run_until(world, lambda: delivered["p02"] == ["late"], timeout=5_000)
    assert world.metrics.counters.get("rb.relayed") >= 1


def test_retained_packets_are_pruned_with_stability():
    world, rbs, delivered = lazy_world(seed=6)
    world.start()
    for i in range(20):
        rbs["p00"].rbcast("t", i)
    assert run_until(world, lambda: all(len(d) == 20 for d in delivered.values()))
    assert rbs["p01"].retained_size() > 0
    world.run_for(1_500.0)  # a few stability rounds
    assert all(rb.seen_size() == 0 for rb in rbs.values())
    assert all(rb.retained_size() == 0 for rb in rbs.values())


def test_seen_size_stays_flat_over_10k_broadcasts():
    # Bounded-memory soak: the dedup index (and the lazy retained store)
    # must be O(in-flight), not O(history).  10k broadcasts across two
    # origins; seen_size() is sampled continuously and must stay small.
    # Untraced: the trace keeps every record, and this run is long.
    world, rbs, delivered = lazy_world(seed=7, suspicion_timeout=10_000.0, trace=False)
    for rb in rbs.values():
        rb.stability_interval = 100.0
    world.start()
    peak_seen = peak_retained = 0
    total = 0
    for batch in range(100):
        for i in range(100):
            rbs["p00" if i % 2 else "p01"].rbcast("t", (batch, i))
            total += 1
        world.run_for(400.0)
        peak_seen = max(peak_seen, max(rb.seen_size() for rb in rbs.values()))
        peak_retained = max(peak_retained, max(rb.retained_size() for rb in rbs.values()))
    assert all(len(d) == total for d in delivered.values())
    assert total == 10_000
    # Far below history size: memory is bounded by the stability window.
    assert peak_seen < 600, peak_seen
    assert peak_retained < 600, peak_retained
    world.run_for(2_000.0)
    assert all(rb.seen_size() == 0 for rb in rbs.values())
    assert all(rb.retained_size() == 0 for rb in rbs.values())
