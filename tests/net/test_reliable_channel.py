"""Unit tests for the reliable channel over a lossy transport."""

from repro.net.reliable import RTO_MIN, ReliableChannel
from repro.net.topology import LinkModel
from repro.sim.process import Component
from repro.sim.world import World

from tests.conftest import run_until


class Sink(Component):
    def __init__(self, process, port="app"):
        super().__init__(process, "sink")
        self.received = []
        self.register_port(port, lambda src, payload: self.received.append((src, payload)))


def lossy_world(seed=1, drop=0.3, dup=0.1):
    world = World(seed=seed, default_link=LinkModel(1.0, 3.0, drop_prob=drop, dup_prob=dup))
    world.spawn(2)
    channels = {pid: ReliableChannel(world.process(pid)) for pid in world.pids()}
    return world, channels


def test_delivery_despite_heavy_loss():
    world, channels = lossy_world(drop=0.4)
    sink = Sink(world.process("p01"))
    world.start()
    for i in range(50):
        channels["p00"].send("p01", "app", i)
    assert run_until(world, lambda: len(sink.received) == 50, timeout=60_000)
    assert [p for _, p in sink.received] == list(range(50))  # FIFO, no dups


def test_duplicates_are_filtered():
    world, channels = lossy_world(drop=0.0, dup=0.5)
    sink = Sink(world.process("p01"))
    world.start()
    for i in range(30):
        channels["p00"].send("p01", "app", i)
    assert run_until(world, lambda: len(sink.received) >= 30, timeout=30_000)
    world.run_for(500.0)
    assert [p for _, p in sink.received] == list(range(30))


def test_self_send_is_immediate_and_reliable():
    world = World(seed=3)
    world.spawn(1)
    channel = ReliableChannel(world.process("p00"))
    sink = Sink(world.process("p00"))
    world.start()
    channel.send("p00", "app", "me")
    world.run_for(1.0)
    assert sink.received == [("p00", "me")]


def test_fifo_order_per_destination():
    world, channels = lossy_world(seed=9, drop=0.25, dup=0.2)
    sink = Sink(world.process("p01"))
    world.start()
    payloads = [f"m{i}" for i in range(40)]
    for p in payloads:
        channels["p00"].send("p01", "app", p)
    assert run_until(world, lambda: len(sink.received) == 40, timeout=60_000)
    assert [p for _, p in sink.received] == payloads


def test_unacked_and_discard():
    world = World(seed=5)
    world.spawn(2)
    sender = ReliableChannel(world.process("p00"))
    ReliableChannel(world.process("p01"))
    world.crash("p01")
    world.start()
    sender.send("p01", "app", "never-acked")
    world.run_for(200.0)
    assert sender.unacked("p01") == 1
    assert sender.oldest_unacked_age("p01") > 0
    sender.discard("p01")
    assert sender.unacked("p01") == 0


def test_gap_skips_discard_hole_when_the_peer_returns():
    """Exclusion discards sent-but-unacked segments — a permanent hole
    in the sequence space.  If the same peer later rejoins on the same
    connection, the receiver must be advanced past the hole (GAP) rather
    than wait forever for a segment nobody will ever retransmit."""
    world = World(seed=12)
    world.spawn(2)
    sender = ReliableChannel(world.process("p00"))
    ReliableChannel(world.process("p01"))
    sink = Sink(world.process("p01"))
    world.start()
    sender.send("p01", "app", "before")
    world.run_for(50.0)
    world.split([["p00"], ["p01"]])
    sender.send("p01", "app", "lost-in-flight")
    world.run_for(25.0)  # past the in-flight copies: all die on the cut wire
    sender.discard("p01")  # membership excluded p01; seq 1 is gone for good
    world.heal()
    sender.send("p01", "app", "after-rejoin")
    assert run_until(world, lambda: len(sink.received) == 2, timeout=5_000)
    assert [p for _, p in sink.received] == ["before", "after-rejoin"]
    assert world.metrics.counters.get("rc.gap_skips") >= 1


def test_output_triggered_suspicion_fires_for_dead_peer():
    # The channel reports the oldest unacked segment's age at every
    # retransmission expiry; how old is stuck is the listener's call.
    world = World(seed=6)
    world.spawn(2)
    sender = ReliableChannel(world.process("p00"))
    ReliableChannel(world.process("p01"))
    stuck = []
    sender.on_stuck(lambda dst, age: stuck.append((dst, age)))
    world.crash("p01")
    world.start()
    sender.send("p01", "app", "black hole")
    world.run_for(500.0)
    # Expiries after 40, 80 and 160 ms of back-off.
    assert stuck == [("p01", RTO_MIN), ("p01", 3 * RTO_MIN), ("p01", 7 * RTO_MIN)]


def test_no_stuck_notification_for_healthy_peer():
    world = World(seed=7)
    world.spawn(2)
    sender = ReliableChannel(world.process("p00"))
    ReliableChannel(world.process("p01"))
    Sink(world.process("p01"))
    stuck = []
    sender.on_stuck(lambda dst, age: stuck.append(dst))
    world.start()
    for i in range(5):
        sender.send("p01", "app", i)
        world.run_for(100.0)
    world.run_for(500.0)
    assert stuck == []


def test_retransmission_counter_grows_under_loss():
    world, channels = lossy_world(seed=11, drop=0.5, dup=0.0)
    Sink(world.process("p01"))
    world.start()
    for i in range(10):
        channels["p00"].send("p01", "app", i)
    world.run_for(2_000.0)
    assert world.metrics.counters.get("rc.retransmits") > 0
