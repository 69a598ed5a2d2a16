"""Every datagram must be attributed to a real protocol layer.

``u_send`` defaults ``layer`` to ``"other"`` — a catch-all that exists
so the transport never crashes on an unattributed call site, not a
layer anything in the stack should actually land in.  A pipelining run
exercising every component (channel, rbcast, fd, consensus, abcast,
gbcast, membership) must leave the ``other`` bucket empty, in both the
datagram and the byte counters — otherwise per-layer cost claims
silently leak traffic.
"""

from __future__ import annotations

from repro.core.new_stack import build_new_group
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
