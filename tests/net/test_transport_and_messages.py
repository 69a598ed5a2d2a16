"""Unit tests for the unreliable transport, link models and message ids."""

import random

import pytest

from repro.net.message import MsgId, MsgIdFactory
from repro.net.topology import LAN, LinkModel, PartitionState
from repro.sim.process import Component
from repro.sim.world import World


class Probe(Component):
    def __init__(self, process):
        super().__init__(process, "probe")
        self.payloads = []
        self.register_port("probe", lambda src, p: self.payloads.append(p))


def test_msg_ids_are_unique_and_ordered():
    factory = MsgIdFactory("p00")
    ids = [factory.next() for _ in range(5)]
    assert len(set(ids)) == 5
    assert ids == sorted(ids)
    assert MsgId("a", 5) < MsgId("b", 0)


def test_app_message_defaults():
    factory = MsgIdFactory("p00")
    msg = factory.message({"op": "x"})
    assert msg.sender == "p00"
    assert msg.msg_class == "default"
    assert "default" in str(msg)


def test_link_model_delay_bounds():
    rng = random.Random(0)
    model = LinkModel(delay_min=2.0, delay_jitter=3.0)
    for _ in range(100):
        d = model.sample_delay(rng)
        assert 2.0 <= d <= 5.0
    assert LinkModel(delay_min=4.0, delay_jitter=0.0).sample_delay(rng) == 4.0


def test_lossless_link_never_drops():
    rng = random.Random(0)
    assert not any(LAN.drops(rng) for _ in range(100))
    assert not any(LAN.duplicates(rng) for _ in range(100))


def test_drop_probability_roughly_respected():
    world = World(seed=1, default_link=LinkModel(1.0, 0.0, drop_prob=0.5))
    world.spawn(2)
    probe = Probe(world.process("p01"))
    for i in range(400):
        world.transport.u_send("p00", "p01", "probe", i)
    world.run_for(100.0)
    assert 100 < len(probe.payloads) < 300  # ~200 expected


def test_duplication_delivers_twice():
    world = World(seed=2, default_link=LinkModel(1.0, 0.0, dup_prob=1.0))
    world.spawn(2)
    probe = Probe(world.process("p01"))
    world.transport.u_send("p00", "p01", "probe", "x")
    world.run_for(100.0)
    assert probe.payloads == ["x", "x"]


def test_per_link_override():
    world = World(seed=3)
    world.spawn(2)
    slow = LinkModel(delay_min=50.0, delay_jitter=0.0)
    world.transport.set_link("p00", "p01", slow)
    probe = Probe(world.process("p01"))
    world.transport.u_send("p00", "p01", "probe", "slow")
    world.run_for(49.0)
    assert probe.payloads == []
    world.run_for(2.0)
    assert probe.payloads == ["slow"]


def test_self_send_has_zero_delay():
    world = World(seed=4, default_link=LinkModel(delay_min=10.0, delay_jitter=0.0))
    world.spawn(1)
    probe = Probe(world.process("p00"))
    world.transport.u_send("p00", "p00", "probe", "self")
    world.run_for(0.0)
    assert probe.payloads == ["self"]


def test_partition_state_semantics():
    parts = PartitionState()
    assert parts.connected("a", "b")
    parts.split([["a", "b"], ["c"]])
    assert parts.partitioned
    assert parts.connected("a", "b")
    assert not parts.connected("a", "c")
    assert not parts.connected("a", "unlisted")
    assert parts.connected("unlisted", "unlisted")
    parts.heal()
    assert parts.connected("a", "c")


def test_one_way_cut_is_directed_and_independent_of_partitions():
    parts = PartitionState()
    parts.cut("a", "b")
    assert not parts.connected("a", "b")
    assert parts.connected("b", "a") and parts.connected("a", "c")
    parts.split([["a", "b", "c"]])
    parts.heal()
    assert not parts.connected("a", "b")  # heal mends nothing
    parts.mend("a", "b")
    assert parts.connected("a", "b")


def test_world_cut_drops_one_direction_counts_and_traces_it():
    world = World(seed=5)
    probes = {pid: Probe(world.process(pid)) for pid in world.spawn(2)}
    world.cut("p00", "p01", at=5.0, until=15.0)
    for at in (1.0, 7.0, 20.0):
        world.scheduler.at(at, world.transport.u_send, "p00", "p01", "probe", at)
        world.scheduler.at(at, world.transport.u_send, "p01", "p00", "probe", at)
    world.run_for(30.0)
    assert probes["p01"].payloads == [1.0, 20.0]
    assert probes["p00"].payloads == [1.0, 7.0, 20.0]
    assert world.metrics.counters.get("net.dropped.partition") == 1
    assert [
        (r.time, r.event, r.details) for r in world.trace.select(component="world")
    ] == [
        (5.0, "cut", {"src": "p00", "dst": "p01"}),
        (15.0, "mend", {"src": "p00", "dst": "p01"}),
    ]


def test_partition_group_overlap_rejected():
    parts = PartitionState()
    with pytest.raises(ValueError):
        parts.split([["a"], ["a", "b"]])


def test_transport_counters():
    world = World(seed=5)
    world.spawn(2)
    Probe(world.process("p01"))
    world.transport.u_send("p00", "p01", "probe", 1)
    world.run_for(50.0)
    counters = world.metrics.counters
    assert counters.get("net.sent") == 1
    assert counters.get("net.delivered") == 1
    assert counters.get("net.sent.port.probe") == 1


def test_transport_layer_attribution():
    world = World(seed=6)
    world.spawn(2)
    Probe(world.process("p01"))
    world.transport.u_send("p00", "p01", "probe", 1)  # default layer
    world.transport.u_send("p00", "p01", "probe", 2, layer="fd")
    world.transport.u_send("p00", "p01", "probe", 3, layer="abcast")
    world.run_for(50.0)
    counters = world.metrics.counters
    assert counters.get("net.sent") == 3
    assert counters.get("net.sent.other") == 1
    assert counters.get("net.sent.fd") == 1
    assert counters.get("net.sent.abcast") == 1


def test_full_stack_traffic_partitions_by_layer():
    # Every datagram of a real run is attributed to exactly one layer:
    # the by-layer counters (minus the per-port detail) sum to net.sent.
    from repro.core.new_stack import build_new_group

    world = World(seed=7)
    stacks = build_new_group(world, 3)
    world.start()
    for i in range(4):
        proc = stacks["p00"].process
        stacks["p00"].abcast.abcast(proc.msg_ids.message(f"m{i}"))
    world.run_for(3_000.0)
    counters = world.metrics.counters
    by_layer = {
        layer: n
        for layer, n in counters.by_prefix("net.sent.").items()
        if not layer.startswith("port.")
    }
    assert sum(by_layer.values()) == counters.get("net.sent")
    assert by_layer.get("fd", 0) > 0            # heartbeats
    assert by_layer.get("abcast", 0) > 0        # payload rbcasts
    assert by_layer.get("consensus", 0) > 0     # rounds + decide rbcasts
    assert by_layer.get("rc", 0) > 0            # channel acks
