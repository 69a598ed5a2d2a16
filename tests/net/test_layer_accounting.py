"""Every datagram must be attributed to a real protocol layer.

``u_send`` defaults ``layer`` to ``"other"`` — a catch-all that exists
so the transport never crashes on an unattributed call site, not a
layer anything in the stack should actually land in.  A pipelining run
exercising every component (channel, rbcast, fd, consensus, abcast,
gbcast, membership) must leave the ``other`` bucket empty, in both the
datagram and the byte counters — otherwise per-layer cost claims
silently leak traffic.

The sums must hold through faults too: on a ring run with loss,
duplication, a partition and a crash with recovery, every datagram is
counted once per layer, per port and per sender, and reading the
counters creates, reorders or changes none of them.
"""

from __future__ import annotations

from repro.core.new_stack import StackConfig, build_new_group, enable_recovery
from repro.net.reliable import PORT_LAYERS, layer_of_port
from repro.net.topology import LinkModel
from repro.net.wire import Blob
from repro.sim.world import World

from tests.abcast.test_id_only_ordering import bcast, logs
from tests.conftest import run_until


def _pipelining_run(payload_bytes=4096):
    world = World(seed=23, default_link=LinkModel(3.0, 8.0))
    stacks = build_new_group(world, 3)
    world.start()
    total = 0
    for i in range(10):
        for pid in list(stacks):
            payload = ("op", pid, i, Blob(payload_bytes))
            world.scheduler.at(
                float(5 * i), lambda p=pid, pl=payload: bcast(stacks, p, pl)
            )
            total += 1
    assert run_until(
        world,
        lambda: all(len(log) == total for log in logs(stacks).values()),
        timeout=120_000,
    )
    world.run_for(1_000.0)
    return world


def test_no_traffic_lands_in_the_other_layer():
    world = _pipelining_run()
    counters = world.metrics.counters
    assert counters.get("net.sent.other") == 0
    assert counters.get("net.bytes.other") == 0


def test_every_active_layer_has_matching_byte_counters():
    world = _pipelining_run()
    counters = world.metrics.counters
    # by_prefix strips the prefix; drop the per-port breakdown keys.
    sent = {
        k: v
        for k, v in counters.by_prefix("net.sent.").items()
        if not k.startswith("port.")
    }
    # ... and the per-sender net.bytes.sent.<pid> breakdown, which is a
    # second (per-node) view of the same bytes, not a layer.
    got_bytes = {
        k: v
        for k, v in counters.by_prefix("net.bytes.").items()
        if not k.startswith("sent.")
    }
    # The per-node view must itself sum to the global byte counter.
    per_node = dict(counters.by_prefix("net.bytes.sent."))
    assert set(per_node) == set(world.processes)
    assert sum(per_node.values()) == counters.get("net.bytes")
    # The run exercised the whole stack.
    for layer in ("rc", "fd", "consensus", "abcast"):
        assert sent.get(layer, 0) > 0, f"expected {layer} traffic"
    # Datagram counters and byte counters agree on which layers exist
    # (byte-only layers can appear: coalesced segments split bytes to
    # layers whose datagram count rode the batch head).
    for layer, count in sent.items():
        if count > 0:
            assert got_bytes.get(layer, 0) > 0, f"no bytes charged to {layer}"
    # All per-layer bytes sum to the global byte counter: the split
    # attribution loses nothing (framing remainders included).
    assert sum(got_bytes.values()) == counters.get("net.bytes")


def _faulty_ring_run(probe=None):
    """n = 5 on the ring overlay at 2 MB/s, with loss, duplication, a
    partition and a crash with recovery; ``probe(counters)`` runs every
    100 ms of simulated time."""
    link = LinkModel(3.0, 8.0, drop_prob=0.05, dup_prob=0.05, bytes_per_ms=2_000.0)
    world = World(seed=7, default_link=link, trace_enabled=False)
    config = StackConfig(dissemination="ring", coalesce_delay=1.0, max_segment_batch=8)
    stacks = build_new_group(world, 5, config=config)
    enable_recovery(world, stacks, config=config)
    world.start()
    for i in range(40):
        pid = ("p00", "p01")[i % 2]
        payload = ("op", pid, i, Blob(4096))
        world.scheduler.at(25.0 * i, lambda p=pid, pl=payload: bcast(stacks, p, pl))
    world.split([["p00", "p01", "p02"], ["p03", "p04"]], at=300.0)
    world.heal(at=700.0)
    world.crash("p03", at=400.0)
    world.recover("p03", at=1_500.0)
    if probe is not None:
        for k in range(1, 60):
            world.scheduler.at(100.0 * k, probe, world.metrics.counters)
    world.run_for(6_000.0)
    return world


def test_counter_sums_hold_on_a_faulty_ring_run():
    world = _faulty_ring_run()
    counters = world.metrics.counters
    # The faults happened.
    for name in ("net.dropped.loss", "net.duplicated", "net.dropped.partition",
                 "net.stale_incarnation_dropped", "rc.retransmits"):
        assert counters.get(name) > 0, name
    assert world.processes["p03"].incarnation == 1
    sent = counters.by_prefix("net.sent.")
    by_port = {k: v for k, v in sent.items() if k.startswith("port.")}
    by_layer = {k: v for k, v in sent.items() if not k.startswith("port.")}
    assert sum(by_layer.values()) == sum(by_port.values()) == counters.get("net.sent")
    assert counters.total("net.sent.port.") == counters.get("net.sent")
    byte_counts = counters.by_prefix("net.bytes.")
    by_sender = {k: v for k, v in byte_counts.items() if k.startswith("sent.")}
    by_layer = {k: v for k, v in byte_counts.items() if not k.startswith("sent.")}
    assert set(by_sender) == {f"sent.{pid}" for pid in world.processes}
    assert sum(by_layer.values()) == sum(by_sender.values()) == counters.get("net.bytes")
    assert counters.total("net.bytes.sent.") == counters.get("net.bytes")


def test_reading_counters_changes_nothing():
    def probe(counters):
        before = list(counters.snapshot().items())
        counters.get("net.sent")
        counters.get("no.such.counter")
        counters["no.such.counter.either"]
        counters.by_prefix("net.sent.")
        counters.by_prefix("no.such.")
        counters.total("net.bytes.")
        assert list(counters.snapshot().items()) == before

    read = _faulty_ring_run(probe).metrics.counters.snapshot()
    unread = _faulty_ring_run().metrics.counters.snapshot()
    # The same counters, the same values, created in the same order.
    assert list(read.items()) == list(unread.items())


class Unsplittable(str):
    """A port name that fails the test if anything splits it."""

    def split(self, *_args, **_kwargs):
        raise AssertionError(f"{self!r} was split")


def test_a_mapped_port_is_looked_up_not_split():
    for port, layer in PORT_LAYERS.items():
        assert layer_of_port(Unsplittable(port)) == layer


def test_an_unmapped_port_is_attributed_by_its_prefix():
    assert "fd.report" not in PORT_LAYERS and "app" not in PORT_LAYERS
    assert layer_of_port("fd.report") == "fd"
    assert layer_of_port("gm.state.extra") == "gm"
    assert layer_of_port("app") == "app"
