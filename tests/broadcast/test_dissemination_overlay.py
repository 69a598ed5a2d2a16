"""The ring dissemination overlay on rbcast: balanced payload routing
failure-free, and the suspicion-edge NACK backstop under forwarder
crashes, suspicion re-routes, view changes and reincarnation."""

from repro.broadcast.rbcast import DIRECT_MAX_BYTES, ReliableBroadcast
from repro.fd.heartbeat import HeartbeatFailureDetector
from repro.net.reliable import ReliableChannel
from repro.net.topology import LinkModel
from repro.net.wire import Blob, payload_size
from repro.sim.world import World

from tests.conftest import edge_nacks, run_until


def overlay_world(
    count=5,
    seed=1,
    link=None,
    suspicion_timeout=100.0,
    dissemination="ring",
    relay_policy="eager",
    members=None,
):
    """channel + fd + rbcast per process, rbcast built with the monitor
    as in the stack (constructors only), mirroring ``tests/broadcast/test_lazy_relay.lazy_world``.

    ``members`` is a mutable list shared by every group provider, so a
    test can splice it to simulate a view install mid-run.
    """
    world = World(seed=seed, default_link=link or LinkModel(1.0, 1.0))
    pids = world.spawn(count)
    group = list(pids) if members is None else members
    rbs, delivered = {}, {pid: [] for pid in pids}
    for pid in pids:
        process = world.process(pid)
        channel = ReliableChannel(process)
        fd = HeartbeatFailureDetector(process, lambda: list(group))
        rb = ReliableBroadcast(
            process,
            channel,
            lambda: list(group),
            dissemination=dissemination,
            relay_policy=relay_policy,
            monitor=fd.monitor(lambda: list(group), suspicion_timeout),
        )
        rb.register("t", lambda o, p, m, pid=pid: delivered[pid].append(p))
        rbs[pid] = rb
    return world, rbs, delivered, group


def body(label):
    """A payload above rbcast's direct-send constant: it takes the
    overlay (a bare label would go direct to every member)."""
    return (label, Blob(4096))


def node_sent_bytes(world):
    return dict(world.metrics.counters.by_prefix("net.bytes.sent."))


def test_rejects_unknown_dissemination():
    world = World(seed=9)
    world.spawn(1)
    channel = ReliableChannel(world.process("p00"))
    for policy in ("gossip", "tree"):
        try:
            ReliableBroadcast(
                world.process("p00"), channel, lambda: ["p00"], dissemination=policy
            )
            assert False, "expected ValueError"
        except ValueError:
            pass


def test_ring_delivers_everywhere_failure_free():
    world, rbs, delivered, _ = overlay_world(count=5, seed=2)
    world.start()
    for i in range(10):
        rbs["p00"].rbcast("t", body(i))
    assert run_until(world, lambda: all(len(d) == 10 for d in delivered.values()))
    assert all(d == [body(i) for i in range(10)] for d in delivered.values())
    counters = world.metrics.counters
    # Each broadcast travels the chain: the 3 middle members forward
    # once each, the origin and the last member do not.
    assert counters.get("rb.forwarded") == 30
    assert counters.get("rb.relayed") == 0
    assert counters.get("rb.nacks_sent") == 0
    assert counters.get("rb.reroutes") == 0


def test_ring_balances_payload_bytes_across_nodes():
    per_policy = {}
    for policy in ("flood", "ring"):
        # Lazy relay for the flood baseline: eager would "balance" bytes
        # by making every node re-send every body (the O(n²) flood).
        world, rbs, delivered, _ = overlay_world(
            count=5, seed=4, dissemination=policy, relay_policy="lazy"
        )
        world.start()
        for i in range(20):
            rbs["p00"].rbcast("t", (i, Blob(4096)))
        assert run_until(world, lambda: all(len(d) == 20 for d in delivered.values()))
        sent = node_sent_bytes(world)
        mean = sum(sent.values()) / len(sent)
        per_policy[policy] = max(sent.values()) / mean
    # Flood: the origin's NIC carries ~4 payload copies per broadcast
    # while everyone else sends none — heavily skewed.  Ring: every node
    # sends each body exactly once — near-perfect balance.
    assert per_policy["flood"] > 2.5
    assert per_policy["ring"] < 1.5


def test_ring_pulls_retained_packets_when_the_successor_crashes():
    # p00's packet dies with its successor p01 before the forward: the
    # rest of the ring is starved until the FD suspects p01, and the
    # starved members ask the others — here only the origin holds it.
    world, rbs, delivered, _ = overlay_world(count=4, seed=5, link=LinkModel(1.0, 0.0))
    world.crash("p01", at=0.5)
    world.start()
    world.run_for(1.0)
    rbs["p00"].rbcast("t", body("survivor"))
    world.run_for(50.0)
    assert delivered["p00"] == [body("survivor")]  # self-delivery is immediate
    assert delivered["p02"] == [] and delivered["p03"] == []
    assert run_until(
        world,
        lambda: delivered["p02"] == [body("survivor")] and delivered["p03"] == [body("survivor")],
        timeout=5_000,
    )
    assert edge_nacks(world, "p02", "p01") == ["p00", "p03"]
    assert edge_nacks(world, "p03", "p01") == ["p00", "p02"]
    assert world.metrics.counters.get("rb.overlay_repairs") >= 2


def test_ring_pulls_other_origins_packets_on_forwarder_crash():
    # A crashed *forwarder* strands packets it was mid-route for — other
    # origins' packets, not its own.  p02 receives p00's packet, crashes
    # before its forward lands at p03; p03's NACK on the edge must fetch
    # p00's packet from whoever retained it.
    world, rbs, delivered, _ = overlay_world(count=4, seed=6, link=LinkModel(1.0, 0.0))
    # p02 -> p03 is very slow: the forward is in flight when p02 dies.
    world.transport.set_link("p02", "p03", LinkModel(delay_min=10_000.0, delay_jitter=0.0))
    world.start()
    rbs["p00"].rbcast("t", body("strand"))
    world.crash("p02", at=5.0)
    world.run_for(50.0)
    assert delivered["p01"] == [body("strand")] and delivered["p03"] == []
    assert run_until(world, lambda: delivered["p03"] == [body("strand")], timeout=5_000)
    assert edge_nacks(world, "p03", "p02") == ["p00", "p01"]
    assert world.metrics.counters.get("rb.overlay_repairs") >= 1


def test_ring_reroutes_around_a_suspected_member():
    # Once p01 is suspected, fresh broadcasts route around it: the chain
    # continues through p02 directly and delivery needs no repair.
    world, rbs, delivered, _ = overlay_world(count=4, seed=7, link=LinkModel(1.0, 0.0))
    world.crash("p01", at=0.5)
    world.start()
    assert run_until(
        world,
        lambda: "p01" in rbs["p00"].monitor.suspects,
        timeout=5_000,
    )
    nacks_before = world.metrics.counters.get("rb.nacks_sent")
    rbs["p00"].rbcast("t", body("around"))
    assert run_until(
        world,
        lambda: delivered["p02"] == [body("around")] and delivered["p03"] == [body("around")],
        timeout=1_000,
    )
    assert world.metrics.counters.get("rb.reroutes") >= 1
    assert world.metrics.counters.get("rb.nacks_sent") == nacks_before
    assert world.metrics.counters.get("rb.overlay_repairs") == 0


def test_overlay_recomputes_hops_on_view_install():
    # The group providers share one mutable member list: splicing it is
    # the miniature equivalent of a view install.  After p01 leaves, the
    # ring re-forms and p00's packets reach the survivors via p02.
    world, rbs, delivered, group = overlay_world(count=4, seed=9, link=LinkModel(1.0, 0.0))
    world.start()
    rbs["p00"].rbcast("t", "before")
    assert run_until(world, lambda: all(len(d) == 1 for d in delivered.values()))
    group.remove("p01")
    world.crash("p01")
    rbs["p00"].rbcast("t", "after")
    assert run_until(
        world,
        lambda: delivered["p02"][-1:] == ["after"] and delivered["p03"][-1:] == ["after"],
        timeout=1_000,
    )
    # No suspicion machinery involved: the new membership alone re-routed.
    assert world.metrics.counters.get("rb.nacks_sent") == 0


def test_recovered_incarnation_disseminates_over_the_ring():
    # A reincarnated member broadcasts under a fresh origin tag
    # ("p01~1!rb"); hops are computed from its *pid*, so the recomputed
    # ring for origin p01 still covers the whole group.
    world, rbs, delivered, group = overlay_world(count=4, seed=10, link=LinkModel(1.0, 0.0))
    world.start()
    world.run_for(5.0)
    world.crash("p01")
    world.run_for(5.0)
    world.recover("p01")
    process = world.process("p01")
    assert process.incarnation == 1
    channel = ReliableChannel(process)
    rb = ReliableBroadcast(process, channel, lambda: list(group), dissemination="ring")
    rb.register("t", lambda o, p, m: delivered["p01"].append(p))
    rbs["p01"] = rb
    world.run_for(5.0)  # starts the rebuilt components
    assert rb._origin == "p01~1!rb"
    rb.rbcast("t", body("reborn"))
    assert run_until(
        world,
        lambda: all(delivered[q] == [body("reborn")] for q in ("p00", "p02", "p03")),
        timeout=1_000,
    )
    # The fresh incarnation really used the overlay: it sent to the head
    # p00 and to its successor p02, which forwarded to p03.
    assert world.metrics.counters.get("rb.forwarded") == 1
    assert world.metrics.counters.get("rb.relayed") == 0


def test_anti_entropy_repairs_a_silent_mid_chain_stall():
    # The black hole no suspicion edge reveals: p00's packet is
    # sent to its successor p01 while p01 is crashed, and p01 comes back
    # (fresh incarnation, snapshot fence covering the packet) before any
    # FD edge fires — suspicion is disabled outright here to prove no
    # edge is involved.  Downstream p02 is starved; only the stability
    # anti-entropy (reported watermark frozen below ours) re-sends the
    # retained packet.
    world, rbs, delivered, group = overlay_world(
        count=3, seed=12, link=LinkModel(1.0, 0.0), suspicion_timeout=1e9
    )
    world.start()
    world.run_for(5.0)
    world.crash("p01")
    rbs["p00"].rbcast("t", body("stranded"))
    world.run_for(5.0)
    assert delivered["p00"] == [body("stranded")]
    assert delivered["p02"] == []
    world.recover("p01")
    process = world.process("p01")
    channel = ReliableChannel(process)
    rb = ReliableBroadcast(process, channel, lambda: list(group), dissemination="ring")
    rb.register("t", lambda o, p, m: delivered["p01"].append(p))
    # The state-transfer fence: the snapshot source (p00) had already
    # delivered the packet, so the rejoiner dedups it instead of
    # forwarding — the chain is silently broken at p01.
    rb.install_snapshot({"watermarks": {rbs["p00"]._origin: 0}})
    rbs["p01"] = rb
    assert run_until(world, lambda: delivered["p02"] == [body("stranded")], timeout=5_000)
    counters = world.metrics.counters
    assert counters.get("rb.overlay_repairs") >= 1
    assert not world.trace.select(component="fd", event="suspect")


def test_overlay_retained_packets_are_pruned_with_stability():
    world, rbs, delivered, _ = overlay_world(count=3, seed=11)
    world.start()
    for i in range(20):
        rbs["p00"].rbcast("t", i)
    assert run_until(world, lambda: all(len(d) == 20 for d in delivered.values()))
    # Everyone retains under an overlay — including the origin.
    assert rbs["p00"].retained_size() > 0
    assert rbs["p01"].retained_size() > 0
    world.run_for(1_500.0)  # a few stability rounds
    assert all(rb.seen_size() == 0 for rb in rbs.values())
    assert all(rb.retained_size() == 0 for rb in rbs.values())


def test_the_size_constant_decides_the_route_at_origin_and_receivers():
    # A Blob of k bytes sizes as k + 2: one packet exactly at the
    # constant, one a byte over it, same seed, same origin p02 (not the
    # head).  At the constant: one direct leg to every member, and no
    # receiver passes on what the origin sent direct (lazy relay, nobody
    # suspected).  One byte larger: the spur to p00 plus the chain
    # p02 -> p03 -> p04 -> p01, two forwards, three hops to the end.
    leg = 5.0
    for extra, forwards, last_leg in ((0, 0, 1), (1, 2, 3)):
        world, rbs, delivered, _ = overlay_world(
            count=5, seed=13, link=LinkModel(leg, 0.0), relay_policy="lazy"
        )
        arrived = {}
        for pid, rb in rbs.items():
            rb.register("when", lambda o, p, m, pid=pid: arrived.setdefault(pid, world.now))
        world.start()
        world.run_for(10.0)
        packet = Blob(DIRECT_MAX_BYTES - 2 + extra)
        assert payload_size(packet) == DIRECT_MAX_BYTES + extra
        sent = world.now
        rbs["p02"].rbcast("when", packet)
        assert run_until(world, lambda: len(arrived) == 5)
        counters = world.metrics.counters
        assert counters.get("rb.forwarded") == forwards
        assert counters.get("rb.relayed") == 0
        assert arrived["p00"] - sent == arrived["p03"] - sent == leg
        assert arrived["p01"] - sent == last_leg * leg
        world.run_for(100.0)
        assert counters.get("rb.forwarded") == forwards
