"""The reliable channel's retransmission discipline (RFC 6298 on a per-peer
one-shot timer): nothing is re-sent that was not lost, the timeout follows
the link, a dead peer costs O(log) transmissions, and an idle channel
schedules nothing.  Acknowledgements reach the sender either as pure ACK
datagrams or riding the data going back (``echo=True`` below makes the
receiver answer every message, so its ACKs ride the answers); the
estimator and Karn's rule must not be able to tell the difference.
"""

import pytest

from repro.net.reliable import ACK_HOLD, INSTANT, RTO_MAX, RTO_MIN, ReliableChannel
from repro.net.topology import LinkModel
from repro.net.wire import Blob
from repro.sim.process import Component
from repro.sim.world import World

from tests.conftest import run_until


class Sink(Component):
    def __init__(self, process, port="app"):
        super().__init__(process, "sink")
        self.received = []
        self.register_port(port, lambda src, payload: self.received.append(payload))


def pair(link, seed=1, echo=False, **channel_kwargs):
    world = World(seed=seed, default_link=link)
    world.spawn(2)
    sender = ReliableChannel(world.process("p00"), **channel_kwargs)
    receiver = ReliableChannel(world.process("p01"), **channel_kwargs)
    sink = Sink(world.process("p01"))
    if echo:
        Sink(world.process("p00"))
        deliver = world.process("p01")._ports["app"]

        def answer(src, payload):
            deliver(src, payload)
            receiver.send(src, "app", payload)

        world.process("p01")._ports["app"] = answer
    world.start()
    return world, sender, sink


def stream(world, sender, count, gap_ms):
    for i in range(count):
        world.scheduler.schedule(i * gap_ms, sender.send, "p01", "app", i)


@pytest.mark.parametrize("phase", [0.0, 18.5, 19.5, 20.0, 38.5, 39.5, 40.0])
def test_every_segment_is_transmitted_exactly_once_whatever_the_timer_phase(phase):
    # The periodic tick used to walk the outbox, which already holds the
    # segments still waiting in the coalescing buffer: one enqueued less
    # than coalesce_delay before a tick went out twice, and its *first*
    # transmission was counted as a retransmission.
    world, sender, sink = pair(LinkModel(1.0, 0.0), coalesce_delay=2.0)
    world.run_for(phase)
    for i in range(3):
        sender.send("p01", "app", i)
    world.run_for(200.0)
    counters = world.metrics.counters
    assert sink.received == [0, 1, 2]
    assert counters.get("rc.retransmits") == 0
    assert counters.get("rc.duplicates_received") == 0
    assert counters.get("net.sent.port.rc") == 2  # one BATCH, one ACK


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_no_spurious_retransmission_on_the_benched_link(seed):
    # 3-11 ms per hop plus the coalescing and ACK holds: a round trip of
    # 7-33 ms with pure ACKs, 8-24 ms with ACKs riding the answers.
    for echo in (False, True):
        world, sender, sink = pair(
            LinkModel(3.0, 8.0), seed=seed, echo=echo, coalesce_delay=1.0
        )
        stream(world, sender, 2_000, gap_ms=0.7)
        assert run_until(world, lambda: len(sink.received) == 2_000)
        counters = world.metrics.counters
        assert sink.received == list(range(2_000))
        assert counters.get("rc.retransmits") == 0
        assert counters.get("rc.duplicates_received") == 0
        assert counters.get("rc.rtt_samples") > 0
        assert 6.0 <= sender._peers["p01"].srtt <= 6.0 + 16.0 + 1.0 + ACK_HOLD
        if echo:
            assert counters.get("rc.acks_piggybacked") > 0
            assert counters.get("net.sent.rc") <= 2  # at most the last ACK each way


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_rto_adapts_to_a_slow_link(seed):
    # A round trip of 60-100 ms: any fixed timer up to 80 ms re-sends
    # segments that were never lost, for ever.  The estimator may only
    # do so until it has seen the link.
    world, sender, sink = pair(LinkModel(30.0, 20.0), seed=seed, coalesce_delay=1.0)
    counters = world.metrics.counters
    stream(world, sender, 2_000, gap_ms=5.0)
    assert run_until(world, lambda: counters.get("rc.rtt_samples") >= 10)
    warm_up = counters.get("rc.retransmits")
    assert warm_up > 0  # the initial RTO is below this link's round trip
    assert run_until(world, lambda: len(sink.received) == 2_000, timeout=30_000)
    assert sink.received == list(range(2_000))
    assert counters.get("rc.retransmits") == warm_up


def test_crashed_peer_costs_logarithmically_many_transmissions():
    world, sender, _sink = pair(LinkModel(1.0, 1.0))
    stuck = []
    sender.on_stuck(lambda dst, age: stuck.append(world.now))
    world.crash("p01")
    sender.send("p01", "app", "black hole")
    world.run_for(2_000.0)
    counters = world.metrics.counters
    # After 40, 80 and 160 ms, then every RTO_MAX: 8 re-sends in 2 s
    # where a fixed 20 ms timer made 100.
    assert counters.get("rc.retransmits") == 8
    assert counters.get("rc.backoffs") == 3  # RTO_MIN * 2**3 == RTO_MAX
    # Every expiry reports the stuck segment, one report per re-send.
    assert len(stuck) == 8
    assert stuck[:4] == [RTO_MIN, 3 * RTO_MIN, 7 * RTO_MIN, 7 * RTO_MIN + RTO_MAX]
    # ... still for ever, at the capped rate.
    world.run_for(10 * RTO_MAX)
    assert counters.get("rc.retransmits") == 18
    assert sender.unacked("p01") == 1


def test_losses_in_one_window_heal_in_one_timeout_not_one_each():
    world, sender, sink = pair(LinkModel(1.0, 0.0))
    sender.send("p01", "app", 0)
    world.transport.set_link("p00", "p01", LinkModel(1.0, 0.0, drop_prob=1.0))
    for i in (1, 2, 3):
        sender.send("p01", "app", i)  # three datagrams, three losses
    world.transport.set_link("p00", "p01", LinkModel(1.0, 0.0))
    sender.send("p01", "app", 4)
    world.run_for(RTO_MIN + 5.0)
    assert sink.received == [0, 1, 2, 3, 4]
    counters = world.metrics.counters
    # 4 was held by the receiver, but a cumulative ACK cannot say so.
    assert counters.get("rc.retransmits") == 4
    assert counters.get("rc.duplicates_received") == 1


def test_backoff_ends_with_the_next_clean_sample():
    # Once with pure ACKs, once with every ACK riding an answer.
    for echo, coalesce_delay in ((False, None), (True, 1.0)):
        world, sender, sink = pair(
            LinkModel(1.0, 0.0), echo=echo, coalesce_delay=coalesce_delay
        )
        world.split([["p00"], ["p01"]])
        sender.send("p01", "app", "cut off")
        world.run_for(500.0)  # 40 + 80 + 160 < 500: three doublings so far
        counters = world.metrics.counters
        estimator = sender._peers["p01"]
        assert counters.get("rc.backoffs") == estimator.backoff == 3
        world.heal()
        assert run_until(world, lambda: sink.received == ["cut off"], timeout=RTO_MAX)
        assert sender.unacked("p01") == 0  # its acknowledgement is home too
        # Karn: the ACK of a retransmitted segment is no sample ...
        assert estimator.srtt is None and estimator.backoff == 3
        # ... the next first-try ACK is, and the RTO collapses to the
        # round trip plus the floor: 2 ms, pure or behind the answer,
        # which waits no coalescing window on its idle link — only the
        # instant.
        sender.send("p01", "app", "clean")
        world.run_for(10.0)
        rtt = 2.0 + (INSTANT if echo else 0.0)
        assert estimator.srtt == pytest.approx(rtt, abs=1e-9) and estimator.backoff == 0
        if echo:  # so far the channel's own datagrams are the re-sends: no pure ACK
            assert counters.get("net.sent.rc") == counters.get("rc.retransmits")
        world.crash("p01")
        before = counters.get("rc.retransmits")
        sender.send("p01", "app", "lost")  # an idle link: it leaves at once
        world.run_for(estimator.timeout() - 0.5)
        assert counters.get("rc.retransmits") == before
        world.run_for(1.0)
        assert counters.get("rc.retransmits") == before + 1
        assert estimator.timeout() <= 2 * (RTO_MIN + 3.0)


def test_full_batches_of_4k_bodies_on_a_2mb_link_are_never_resent():
    # 16 ms to serialise a full batch (each way, when it is answered), on
    # top of the hops, the coalescing hold and an ACK that waits ACK_HOLD:
    # the slack RTO_MIN leaves above the smoothed round trip covers it.
    # (One small message first: the *initial* RTO knows no round trip.)
    link = LinkModel(3.0, 8.0, bytes_per_ms=2000.0)
    for echo in (False, True):
        world, sender, sink = pair(link, echo=echo, coalesce_delay=1.0)
        sender.send("p01", "app", (-1, Blob(64)))
        for burst in range(40):
            for i in range(8):
                world.scheduler.schedule(
                    50.0 + burst * 25.0, sender.send, "p01", "app", (burst * 8 + i, Blob(4096))
                )
        assert run_until(world, lambda: len(sink.received) == 321)
        world.run_for(200.0)
        counters = world.metrics.counters
        assert [index for index, _body in sink.received] == list(range(-1, 320))
        assert counters.get("rc.retransmits") == 0
        assert counters.get("rc.backoffs") == 0
        assert counters.get("rc.duplicates_received") == 0


def test_idle_channel_schedules_nothing():
    world, sender, sink = pair(LinkModel(3.0, 8.0), coalesce_delay=1.0)
    stream(world, sender, 50, gap_ms=2.0)
    assert run_until(world, lambda: len(sink.received) == 50)
    world.run_for(100.0)  # the last delayed ACK comes home
    assert sender.unacked("p01") == 0
    before = world.scheduler.events_processed
    world.run_for(10_000.0)
    assert world.scheduler.events_processed == before

