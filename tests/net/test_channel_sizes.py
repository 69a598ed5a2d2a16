"""The reliable channel sizes its own datagrams: every size it hands the
transport equals ``wire_size`` of the datagram.

The channel sizes each segment once, at ``send``, and derives every
datagram's size from the segment sizes instead of walking the datagram
again.  On a link with a bandwidth term a byte is simulated time, so
each path — first DATA, BATCH, ACK, GAP, re-sent DATA and BATCH — is
checked datagram by datagram.
"""

from repro.net.message import AppMessage, MsgId
from repro.net.reliable import ReliableChannel
from repro.net.topology import LinkModel
from repro.net.wire import INT_BYTES, Blob, payload_size, wire_size
from repro.sim.process import Component
from repro.sim.world import World

from tests.conftest import run_until


class Sink(Component):
    def __init__(self, process, port="app"):
        super().__init__(process, "sink")
        self.received = []
        self.register_port(port, lambda src, payload: self.received.append(payload))


def spy_on_sizes(world):
    """Record ``(kind, layer, size handed over, wire_size, byte split,
    datagram)`` of every datagram sent."""
    seen = []
    send = world.transport.send

    def spy(route, port, payload, layer, size, byte_split=None):
        kind = payload[0] if isinstance(payload, tuple) else None
        seen.append((kind, layer, size, wire_size(payload), byte_split, payload))
        send(route, port, payload, layer, size, byte_split)

    world.transport.send = spy
    return seen


def bodies(i):
    """Payloads of every shape the stacks send, a different one per ``i``."""
    mid = MsgId("p00", i, i % 2)
    shapes = [
        i,
        f"op-{i}",
        ("chk", mid, AppMessage(mid, "p00", ("deposit", i, Blob(64 * i)), "dep")),
        [(0, mid), (1, MsgId("p01", i))],
        {"stage": i, "ids": (mid,), "blob": Blob(i)},
        None,
    ]
    return shapes[i % len(shapes)]


def assert_sized_right(seen):
    for kind, layer, size, expected, *_ in seen:
        assert size is not None, f"{kind} datagram ({layer}) handed over unsized"
        assert size == expected, f"{kind} datagram ({layer}): {size} != wire_size {expected}"


def test_data_batch_ack_and_resends_are_sized_right():
    link = LinkModel(1.0, 2.0, drop_prob=0.3, bytes_per_ms=50.0)
    world = World(seed=3, default_link=link)
    world.spawn(2)
    channels = {
        pid: ReliableChannel(world.process(pid), coalesce_delay=1.0, max_segment_batch=4)
        for pid in world.pids()
    }
    sink = Sink(world.process("p01"))
    Sink(world.process("p00"))
    seen = spy_on_sizes(world)
    world.start()
    sent = []
    for burst in range(12):
        for i in range(burst % 5 + 1):
            payload = bodies(len(sent))
            sent.append(payload)
            world.scheduler.at(burst * 20.0 + i * 0.1, channels["p00"].send, "p01", "app", payload)
        # Traffic the other way too, so ACKs ride data and stand alone.
        world.scheduler.at(burst * 20.0 + 5.0, channels["p01"].send, "p00", "app", burst)
    assert run_until(world, lambda: len(sink.received) == len(sent), timeout=60_000)
    assert sink.received == sent

    assert_sized_right(seen)
    paths = {(kind, "resent" if layer == "rc" else "first") for kind, layer, *_ in seen}
    assert {
        ("DATA", "first"),
        ("BATCH", "first"),
        ("ACK", "resent"),  # an ACK is always the channel's own ("rc")
        ("DATA", "resent"),
        ("BATCH", "resent"),
    } <= paths
    # A BATCH splits its bytes per segment: each share is its payload's
    # size, and the ACK field's goes to the channel.
    batches = [
        (split, datagram)
        for kind, layer, _, _, split, datagram in seen
        if kind == "BATCH" and layer != "rc"
    ]
    assert batches
    for split, datagram in batches:
        shares = [("app", payload_size(payload)) for _seq, _port, payload in datagram[4]]
        assert split == shares + [("rc", INT_BYTES)]


def test_gap_notice_is_sized_right():
    """The discard/rejoin path of ``test_gap_skips_discard_hole_when_the_peer_returns``."""
    world = World(seed=12, default_link=LinkModel(1.0, 3.0, bytes_per_ms=50.0))
    world.spawn(2)
    sender = ReliableChannel(world.process("p00"))
    ReliableChannel(world.process("p01"))
    sink = Sink(world.process("p01"))
    seen = spy_on_sizes(world)
    world.start()
    sender.send("p01", "app", "before")
    world.run_for(50.0)
    world.split([["p00"], ["p01"]])
    sender.send("p01", "app", ("lost-in-flight", Blob(300)))
    world.run_for(25.0)
    sender.discard("p01")
    world.heal()
    sender.send("p01", "app", "after-rejoin")
    assert run_until(world, lambda: len(sink.received) == 2, timeout=5_000)
    assert world.metrics.counters.get("rc.gap_notices") >= 1
    assert_sized_right(seen)
    assert "GAP" in {kind for kind, *_ in seen}


def test_fan_out_datagrams_are_sized_right():
    world = World(seed=1)
    world.spawn(3)
    channel = ReliableChannel(world.process("p00"))
    for pid in ("p01", "p02"):
        ReliableChannel(world.process(pid))
        Sink(world.process(pid))
    seen = spy_on_sizes(world)
    world.start()
    message = AppMessage(MsgId("p00", 0), "p00", ("body", Blob(512)), "c")
    channel.send_to_all(world.pids(), "app", message)
    world.run_for(50.0)
    assert message._size == payload_size(message)
    assert_sized_right(seen)
    assert sum(kind == "DATA" for kind, *_ in seen) == 2
