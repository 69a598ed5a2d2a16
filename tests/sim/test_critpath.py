"""Critical-path extraction: hand-built chains with known answers, plus
the span-id determinism contract (byte-identical Chrome exports)."""

from repro.core.api import GroupCommunication
from repro.core.new_stack import build_new_group
from repro.sim import critpath
from repro.sim.tracing import SpanLog
from repro.sim.world import World


def three_hop_log() -> SpanLog:
    """send(p00, t=0) --2ms transit--> queue(p01, 1ms active + 2ms wait)
    --> deliver(p01, t=5): total 5 ms, known per-layer/per-kind split."""
    spans = SpanLog()
    send = spans.begin("p00", "abcast", "abcast", "send", 0.0, parent=None, mid="p00#1")
    send.end = 0.0
    transit = spans.begin("p00", "net", "net:rc", "transit", 0.0, parent=send)
    transit.end = 2.0
    queue = spans.begin("p01", "rc", "rc:q", "queue", 2.0, parent=transit)
    queue.end = 3.0
    spans.point("p01", "abcast", "adeliver", "deliver", 5.0, parent=queue, mid="p00#1")
    return spans


def test_chain_walks_root_first():
    spans = three_hop_log()
    deliver = spans.select(name="adeliver")[0]
    path = critpath.chain(deliver, spans.by_id())
    assert [s.name for s in path] == ["abcast", "net:rc", "rc:q", "adeliver"]
    assert path[0].parent is None


def test_attribution_decomposes_exactly():
    spans = three_hop_log()
    deliver = spans.select(name="adeliver")[0]
    attr = critpath.attribute(critpath.chain(deliver, spans.by_id()))
    assert attr["total_ms"] == 5.0
    # Segment transit->queue: 2 ms fully active transit (layer net);
    # segment queue->deliver: 3 ms = 1 ms active queueing + 2 ms wait
    # (layer rc).  Both decompositions sum exactly to the total.
    assert attr["by_layer"] == {"net": 2.0, "rc": 3.0}
    assert attr["by_kind"] == {"transit": 2.0, "queue": 1.0, "wait": 2.0}
    assert sum(attr["by_layer"].values()) == attr["total_ms"]
    assert sum(attr["by_kind"].values()) == attr["total_ms"]


def test_delivery_paths_latency_and_completeness():
    spans = three_hop_log()
    (rec,) = critpath.delivery_paths(spans, "adeliver", "abcast")
    assert rec["complete"] and rec["mid"] == "p00#1"
    assert rec["hops"] == 4
    assert rec["latency_ms"] == 5.0
    # The chain roots in the message's own send: no ordering wait.
    assert rec["ordering_wait_ms"] == 0.0


def test_ordering_wait_when_chain_roots_elsewhere():
    # The delivery's chain roots in a DIFFERENT trace (the consensus
    # cascade that ordered the batch): the gap between the message's own
    # send and that root is ordering wait.
    spans = SpanLog()
    send = spans.begin("p00", "abcast", "abcast", "send", 1.0, parent=None, mid="p00#2")
    send.end = 1.0
    decide = spans.begin("p01", "consensus", "decide", "proc", 4.0, parent=None)
    decide.end = 4.0
    spans.point("p01", "abcast", "adeliver", "deliver", 6.0, parent=decide, mid="p00#2")
    (rec,) = critpath.delivery_paths(spans, "adeliver", "abcast")
    assert rec["complete"]
    assert rec["latency_ms"] == 5.0
    assert rec["ordering_wait_ms"] == 3.0


def test_delivery_without_send_span_is_incomplete():
    spans = SpanLog()
    spans.point("p01", "abcast", "adeliver", "deliver", 2.0, parent=None, mid="ghost#1")
    (rec,) = critpath.delivery_paths(spans, "adeliver", "abcast")
    assert not rec["complete"]
    assert "latency_ms" not in rec
    block = critpath.summarize_deliveries(spans, "adeliver", "abcast")
    assert block["deliveries"] == 1 and block["complete"] == 0


def test_render_path_mentions_every_hop():
    spans = three_hop_log()
    (rec,) = critpath.delivery_paths(spans, "adeliver", "abcast")
    text = critpath.render_path(rec)
    for name in ("abcast", "net:rc", "rc:q", "adeliver"):
        assert name in text


def traced_run(seed: int) -> World:
    """A short seeded abcast scenario with tracing on."""
    world = World(seed=seed)
    stacks = build_new_group(world, 3)
    apis = {pid: GroupCommunication(s) for pid, s in stacks.items()}
    world.start()
    for i in range(4):
        apis["p00"].abcast(("a", i))
        apis["p01"].abcast(("b", i))
    assert world.run_until(
        lambda: all(len(a.delivered) == 8 for a in apis.values()), timeout=60_000
    )
    return world


def test_span_ids_deterministic_byte_identical_export(tmp_path):
    paths = []
    for run in (1, 2):
        world = traced_run(seed=11)
        out = tmp_path / f"run{run}.json"
        world.trace.export_chrome(str(out))
        paths.append(out)
        assert world.spans.check_integrity() == []
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_live_run_causal_trees_complete():
    world = traced_run(seed=12)
    block = critpath.summarize_deliveries(world.spans, "adeliver", "abcast")
    # The 8 app messages are g-delivered; what abcast a-delivers is the
    # one ENDSTAGE of each closed stage, at each of the 3 processes —
    # however few closures the 8 pairwise-conflicting messages needed
    # (an ENDSTAGE orders everything its closer holds pending).
    closures = world.metrics.counters.get("gbcast.endstages")
    assert closures >= 1
    assert block["deliveries"] == 3 * closures
    assert block["complete"] == block["deliveries"]
    assert block["integrity_errors"] == 0
    assert block["mean_latency_ms"] > 0
