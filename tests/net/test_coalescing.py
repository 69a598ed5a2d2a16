"""Send-side coalescing and delayed cumulative ACKs in ReliableChannel.

The contract: with ``coalesce_delay`` set, multiple DATA segments to the
same peer ride one BATCH datagram (capped by ``max_segment_batch``; held
for the window behind a datagram sent within it, else only to the end of
the instant), an owed ACK rides whatever datagram next goes the same way
and is sent on its own only after ``ACK_HOLD`` ms without one — while
per-link FIFO, duplicate suppression, crash recovery, and byte-identical
determinism all hold exactly as on the segment-per-datagram path.
"""

from repro.core.new_stack import StackConfig, build_new_group, enable_recovery
from repro.net.reliable import ACK_HOLD, INSTANT, ReliableChannel
from repro.net.topology import LinkModel
from repro.sim.process import Component
from repro.sim.world import World

from tests.conftest import run_until


class Sink(Component):
    def __init__(self, process, port="app"):
        super().__init__(process, "sink")
        self.received = []
        self.register_port(port, lambda src, payload: self.received.append(payload))


def coalescing_world(seed=1, link=None, coalesce_delay=2.0, max_segment_batch=8):
    world = World(seed=seed, default_link=link or LinkModel(1.0, 0.0))
    world.spawn(2)
    channels = {
        pid: ReliableChannel(
            world.process(pid),
            coalesce_delay=coalesce_delay,
            max_segment_batch=max_segment_batch,
        )
        for pid in world.pids()
    }
    return world, channels


def test_burst_rides_fewer_datagrams_than_segments():
    world, channels = coalescing_world()
    sink = Sink(world.process("p01"))
    world.start()
    for i in range(32):
        channels["p00"].send("p01", "app", i)
    assert run_until(world, lambda: len(sink.received) == 32)
    counters = world.metrics.counters
    assert sink.received == list(range(32))  # FIFO intact
    assert counters.get("rc.batches") > 0
    assert counters.get("rc.segments_coalesced") > 0
    # 32 segments in max-8 batches plus acks: far fewer wire datagrams
    # than the 32 DATA + 32 ACK of the uncoalesced path.
    assert counters.get("net.sent.port.rc") <= 16


def test_segments_wait_for_the_window_only_behind_a_recent_datagram():
    world, channels = coalescing_world(coalesce_delay=1.0, max_segment_batch=3)
    Sink(world.process("p01"))
    sender = channels["p00"]
    wire = []  # (time, kind, segments) of every datagram p00 sends
    send = world.transport.send

    def spy(route, port, datagram, *args):
        if route.src == "p00":
            wire.append((world.now, datagram[0], 1 if datagram[0] == "DATA" else len(datagram[4])))
        send(route, port, datagram, *args)

    world.transport.send = spy

    def cascade():
        sender.send("p01", "app", 0)
        world.scheduler.schedule(0.0, sender.send, "p01", "app", 1)

    world.start()
    # An idle link: the segment leaves at the end of its instant, with
    # what the same instant's cascade adds after it.
    world.scheduler.at(10.0, cascade)
    # Within the window of that datagram: the next one waits the window.
    world.scheduler.at(10.5, sender.send, "p01", "app", 2)
    # A full batch leaves at once, recent datagram or not.
    world.scheduler.at(11.7, lambda: [sender.send("p01", "app", i) for i in (3, 4, 5)])
    world.run_for(20.0)
    assert wire == [(10.0 + INSTANT, "BATCH", 2), (11.5, "DATA", 1), (11.7, "BATCH", 3)]


def test_max_segment_batch_caps_batch_size():
    world, channels = coalescing_world(max_segment_batch=4)
    sink = Sink(world.process("p01"))
    world.start()
    for i in range(20):
        channels["p00"].send("p01", "app", i)
    assert run_until(world, lambda: len(sink.received) == 20)
    assert sink.received == list(range(20))
    # A same-turn burst of 20 flushes on every 4th segment: 5 full batches.
    assert world.metrics.counters.get("rc.batches") == 5
    assert world.metrics.counters.get("rc.segments_coalesced") == 15


def test_fifo_and_dedup_hold_under_loss_and_duplication():
    # One way (pure ACKs), then both ways at once (ACKs ride the data,
    # and are lost and duplicated with it).
    for senders in (("p00",), ("p00", "p01")):
        world, channels = coalescing_world(
            seed=4, link=LinkModel(1.0, 3.0, drop_prob=0.3, dup_prob=0.2)
        )
        sinks = {pid: Sink(world.process(pid)) for pid in world.pids()}
        world.start()
        payloads = [f"m{i}" for i in range(40)]
        for src in senders:
            dst = "p01" if src == "p00" else "p00"
            for i, p in enumerate(payloads):
                # Spread over time so batches form and retransmissions
                # interleave with fresh coalesced sends.
                world.scheduler.at(
                    float(i // 7), lambda s=src, d=dst, p=p: channels[s].send(d, "app", p)
                )
        receivers = [sinks["p01" if src == "p00" else "p00"] for src in senders]
        assert run_until(
            world, lambda: all(len(r.received) >= 40 for r in receivers), timeout=60_000
        )
        world.run_for(1_000.0)
        assert all(r.received == payloads for r in receivers)
        assert all(channels[src].unacked(dst) == 0 for src, dst in (("p00", "p01"), ("p01", "p00")))


def test_cumulative_acks_cut_ack_traffic():
    ack_counts = {}
    for label, delay in (("plain", None), ("coalesced", 2.0)):
        world, channels = coalescing_world(seed=5, coalesce_delay=delay)
        sink = Sink(world.process("p01"))
        world.start()
        for i in range(30):
            channels["p00"].send("p01", "app", i)
        assert run_until(world, lambda: len(sink.received) == 30)
        world.run_for(100.0)
        assert sink.received == list(range(30))
        # ACKs (and retransmissions) are the channel's own traffic: layer "rc".
        ack_counts[label] = world.metrics.counters.get("net.sent.rc")
    assert ack_counts["plain"] == 30  # one ack per segment
    assert ack_counts["coalesced"] <= ack_counts["plain"] / 3


def test_request_response_traffic_sends_no_pure_ack():
    # Every ACK finds a datagram going its way within the hold: the
    # request's rides the response, the response's the next request.
    world, channels = coalescing_world(coalesce_delay=1.0, link=LinkModel(3.0, 8.0))
    rounds = 200
    served = []

    def serve(src, request):
        served.append(request)
        channels["p01"].send(src, "app", ("response", request))

    def next_request(src, response):
        if response[1] + 1 < rounds:
            channels["p00"].send(src, "app", response[1] + 1)

    world.process("p01").register_port("app", serve)
    world.process("p00").register_port("app", next_request)
    world.start()
    channels["p00"].send("p01", "app", 0)
    assert run_until(world, lambda: len(served) == rounds, timeout=60_000)
    counters = world.metrics.counters
    assert served == list(range(rounds))
    assert counters.get("net.sent.rc") == 0
    # Only the last response's ACK finds nothing to ride.
    world.run_for(1.0 + 11.0 + ACK_HOLD + 11.0)
    assert counters.get("rc.acks_piggybacked") == 2 * rounds - 1
    assert counters.get("net.sent.rc") == 1
    assert counters.get("rc.retransmits") == 0
    assert channels["p01"].unacked("p00") == 0


def test_one_way_stream_draws_at_most_one_ack_per_hold():
    world, channels = coalescing_world(coalesce_delay=1.0, link=LinkModel(3.0, 8.0))
    sink = Sink(world.process("p01"))
    world.start()
    for i in range(1_000):
        world.scheduler.at(i * 2.0, lambda i=i: channels["p00"].send("p01", "app", i))
    assert run_until(world, lambda: len(sink.received) == 1_000, timeout=10_000)
    world.run_for(100.0)
    counters = world.metrics.counters
    assert channels["p00"].unacked("p01") == 0
    assert counters.get("rc.retransmits") == 0
    # 2 s of arrivals; the parent's 1 ms hold drew one ACK per datagram.
    assert counters.get("net.sent.rc") <= 2_000.0 / ACK_HOLD + 2
    assert counters.get("rc.acks_piggybacked") == 0


def test_coalesced_delivery_survives_receiver_recovery():
    # Segments buffered or in flight when the peer reincarnates must be
    # renumbered and redelivered to the fresh incarnation exactly once.
    world, channels = coalescing_world(seed=6)
    world.start()
    world.run_for(5.0)
    world.crash("p01")
    for i in range(10):
        channels["p00"].send("p01", "app", i)
    world.run_for(50.0)
    world.process("p01").recover()
    channels["p01"] = ReliableChannel(world.process("p01"), coalesce_delay=2.0)
    sink = Sink(world.process("p01"))
    world.start()
    assert run_until(world, lambda: len(sink.received) == 10, timeout=10_000)
    world.run_for(1_000.0)
    assert sink.received == list(range(10))


def _lazy_coalesced_crash_scenario(seed):
    """Full Fig. 9 stack with the perf knobs on, a crash, and recovery."""
    world = World(seed=seed, default_link=LinkModel(2.0, 6.0))
    stacks = build_new_group(world, 3)
    enable_recovery(world, stacks)
    world.start()
    for i in range(30):
        world.scheduler.at(
            20.0 + 25.0 * i,
            lambda i=i: stacks["p00"].abcast.abcast(
                stacks["p00"].process.msg_ids.message(("cmd", i))
            ),
        )
    world.crash("p02", at=300.0)
    world.recover("p02", at=900.0)
    alive = lambda: [s for s in stacks.values() if not s.process.crashed]
    drained = run_until(
        world,
        lambda: all(
            len([m for m in s.abcast.delivered_log if not m.msg_class.startswith("_")]) >= 30
            for s in alive()
            if s.membership.current_view() is not None
        )
        and len(alive()) == 3,
        timeout=60_000,
    )
    world.run_for(2_000.0)
    return world, stacks, drained


def test_lazy_coalesced_stack_fingerprint_is_byte_identical():
    # Pin the new wire paths: same seed, same scenario, twice — the BATCH
    # framing, delayed acks, lazy relay, and suspicion floods must all
    # replay to the same event sequence.
    def fingerprint():
        world, stacks, drained = _lazy_coalesced_crash_scenario(seed=11)
        assert drained
        logs = {
            pid: [
                str(m.id)
                for m in s.abcast.delivered_log
                if not m.msg_class.startswith("_")
            ]
            for pid, s in stacks.items()
        }
        keep = (
            "net.sent", "net.delivered", "rc.batches", "rc.segments_coalesced",
            "rb.relayed", "rb.nacks_sent", "rb.broadcasts",
        )
        counts = {k: world.metrics.counters.get(k) for k in keep}
        return logs, counts, world.now

    first, second = fingerprint(), fingerprint()
    assert first == second
    # The perf paths were actually exercised, not just configured.
    assert first[1]["rc.batches"] > 0
    assert first[1]["rc.segments_coalesced"] > 0


def test_ordered_delivery_agrees_between_plain_and_coalesced_stacks():
    # Coalescing is a wire-level optimisation: the application-visible
    # delivery order produced by a deterministic workload must be a valid
    # total order either way (contents equal as sets, each totally ordered).
    def deliveries(coalesce_delay):
        config = StackConfig(coalesce_delay=coalesce_delay)
        world = World(seed=13, default_link=LinkModel(1.0, 2.0))
        stacks = build_new_group(world, 3, config=config)
        world.start()
        for i in range(12):
            pid = f"p{i % 3:02d}"
            stacks[pid].abcast.abcast(stacks[pid].process.msg_ids.message(("m", pid, i)))
        assert run_until(
            world,
            lambda: all(
                len([m for m in s.abcast.delivered_log if not m.msg_class.startswith("_")]) == 12
                for s in stacks.values()
            ),
            timeout=30_000,
        )
        logs = [
            [m.payload for m in s.abcast.delivered_log if not m.msg_class.startswith("_")]
            for s in stacks.values()
        ]
        assert logs[0] == logs[1] == logs[2]  # total order within the run
        return logs[0]

    plain, coalesced = deliveries(None), deliveries(2.0)
    assert sorted(map(str, plain)) == sorted(map(str, coalesced))
