"""Traffic-aware failure detection: liveness tap, suppression, fencing.

Covers the three pieces of the traffic-aware FD:

* the transport **liveness tap** — any delivered datagram refreshes the
  receiver's ``last_heard`` for the sender;
* **heartbeat suppression** — a beat to a peer is skipped when any
  datagram went to that peer within the last heartbeat period, and a due
  one goes out as whatever the reliable channel owes that peer;
* **incarnation fencing** — stale pre-crash evidence can never vouch
  for a recovered process, at the tap as everywhere else.

The one property all of it must preserve: a *crashed* peer's links go
idle immediately, so time-to-suspect is unchanged with suppression on.
"""

import random

import pytest

from repro.fd.heartbeat import HeartbeatFailureDetector, StarMonitor
from repro.net.reliable import ACK_HOLD, ReliableChannel
from repro.net.topology import LinkModel
from repro.sim.process import Component
from repro.sim.world import World

from tests.conftest import run_until


class Chatter(Component):
    """A registered app port, so raw datagrams dispatch cleanly."""

    def __init__(self, process, port="app"):
        super().__init__(process, "chatter")
        self.received = []
        self.register_port(port, lambda src, payload: self.received.append((src, payload)))


def fd_world(count=3, seed=1, hb=10.0, link=None, suppression=False):
    """Detectors alone; with ``suppression`` each is built with its
    process's (idle) reliable channel, as the new stack builds it."""
    world = World(seed=seed, default_link=link or LinkModel(1.0, 0.0))
    pids = world.spawn(count)
    fds = {
        pid: HeartbeatFailureDetector(
            world.process(pid),
            lambda p=pids: list(p),
            hb,
            channel=ReliableChannel(world.process(pid)) if suppression else None,
        )
        for pid in pids
    }
    for pid in pids:
        Chatter(world.process(pid))
    return world, fds


def app_traffic(world, src, dst, start, stop, every=5.0):
    t = start
    while t < stop:
        world.scheduler.at(t, lambda: world.transport.u_send(src, dst, "app", "x", layer="app"))
        t += every


def test_tap_refreshes_last_heard_from_app_traffic():
    # Heartbeats fire once at start and then effectively never again:
    # whatever keeps last_heard moving afterwards is the tap.
    world, fds = fd_world(hb=1_000_000.0)
    world.start()
    world.run_for(50.0)
    before = fds["p00"].last_heard("p01")
    taps_before = world.metrics.counters.get("fd.tap_refreshes")
    world.transport.u_send("p01", "p00", "app", "hello", layer="app")
    world.run_for(10.0)
    assert fds["p00"].last_heard("p01") > before
    assert world.metrics.counters.get("fd.tap_refreshes") > taps_before


def test_suppression_skips_busy_links_but_beats_idle_ones():
    world, fds = fd_world(suppression=True)
    world.start()
    # p00 -> p01 is busy (app datagram every 5 ms < 10 ms heartbeat
    # period); p00 -> p02 stays idle.
    app_traffic(world, "p00", "p01", start=5.0, stop=500.0)
    world.run_for(520.0)
    counters = world.metrics.counters
    assert counters.get("fd.suppressed") > 0
    assert counters.get("fd.explicit_hb") > 0  # idle links still beat
    now = world.now
    # Both receivers keep fresh evidence of p00: the busy link via the
    # tap, the idle link via explicit heartbeats.
    assert now - fds["p01"].last_heard("p00") < 30.0
    assert now - fds["p02"].last_heard("p00") < 30.0


def test_suppression_off_never_suppresses():
    world, fds = fd_world(suppression=False)
    world.start()
    app_traffic(world, "p00", "p01", start=5.0, stop=300.0)
    world.run_for(320.0)
    assert world.metrics.counters.get("fd.suppressed") == 0


def test_tap_fences_stale_incarnation_evidence():
    world, fds = fd_world(hb=1_000_000.0)
    world.start()
    world.run_for(10.0)
    fd = fds["p00"]
    fd._on_traffic("p01", 1, "app")  # a datagram of incarnation 1 arrived
    heard_at = fd.last_heard("p01")
    world.run_for(50.0)
    fd._on_traffic("p01", 0, "app")  # stale pre-crash datagram
    assert fd.last_heard("p01") == heard_at  # must not vouch


def test_tap_reports_reincarnation():
    world, fds = fd_world(hb=1_000_000.0)
    world.start()
    world.run_for(10.0)  # first beats establish incarnation 0 evidence
    fd = fds["p00"]
    events = []
    fd.on_reincarnation(lambda pid, inc: events.append((pid, inc)))
    fd._on_traffic("p01", 1, "app")
    assert events == [("p01", 1)]
    assert fd.incarnation_of("p01") == 1


def suspicion_time(suppression, crash_at=200.0, timeout=35.0):
    """Time-to-suspect a crashed peer, under a deterministic link.

    App traffic keeps the p01 -> p00 link warm until well before the
    crash; after it stops, explicit heartbeats resume either way, so the
    pre-crash evidence timelines coincide and any difference in the
    suspicion instant would be suppression changing detection latency.
    """
    world, fds = fd_world(seed=7, suppression=suppression)
    monitor = fds["p00"].monitor(["p01"], timeout=timeout)
    world.start()
    app_traffic(world, "p01", "p00", start=5.0, stop=100.0)
    world.run_for(crash_at)
    world.crash("p01")
    assert run_until(world, lambda: "p01" in monitor.suspects, timeout=5_000)
    return world.now - crash_at


def test_crashed_peer_suspected_no_later_with_suppression():
    assert suspicion_time(suppression=True) == suspicion_time(suppression=False)


# ----------------------------------------------------------------------
# Keep-alive deadlines: a heartbeat only when a link has been silent for
# a whole interval
# ----------------------------------------------------------------------
def heartbeat_log(world, src, dst):
    """Times at which ``src`` hands the transport a heartbeat for ``dst``."""
    sent = []
    send = world.transport.send

    def spy(route, port, payload, *args):
        if (route.src, route.dst, port) == (src, dst, "fd.hb"):
            sent.append(world.now)
        send(route, port, payload, *args)

    world.transport.send = spy
    return sent


def test_silent_link_carries_exactly_one_heartbeat_per_interval():
    world, fds = fd_world(hb=15.0, suppression=True)
    sent = heartbeat_log(world, "p00", "p01")
    world.start()
    world.run_for(1_500.0)
    assert sent == [15.0 * k for k in range(101)]


def test_busy_link_carries_no_heartbeat_at_all():
    world, fds = fd_world(hb=15.0, suppression=True)
    sent = heartbeat_log(world, "p00", "p01")
    world.start()
    world.run_for(1.0)
    del sent[:]  # the one at start, before any traffic
    app_traffic(world, "p00", "p01", start=5.0, stop=1_000.0, every=5.0)
    world.run_for(999.0)
    assert sent == []
    assert world.metrics.counters.get("fd.suppressed") > 0
    # The receiver is none the worse for it.
    assert world.now - fds["p01"].last_heard("p00") <= 5.0 + 1.0


def keepalive_with_an_owed_ack(star):
    """What p00 sends p01 once it owes p01 an ACK: p01's segment lands at
    11 ms, the ACK may be held until 21 ms, and p00's keep-alive to p01
    falls due at 15 ms.  With ``star`` p00 watches p01 first-hand while
    p01's heartbeats say it does not watch p00: p00 must ask."""
    world = World(seed=1, default_link=LinkModel(1.0, 0.0))
    pids = world.spawn(2)
    channels = {pid: ReliableChannel(world.process(pid), coalesce_delay=1.0) for pid in pids}
    fds = {
        pid: HeartbeatFailureDetector(
            world.process(pid), lambda: list(pids), 15.0, channel=channels[pid]
        )
        for pid in pids
    }
    if star:
        StarMonitor(fds["p00"], lambda: list(pids), 60.0, channels["p00"])
    Chatter(world.process("p00"))
    wire = []
    send = world.transport.send

    def spy(route, port, payload, *args):
        if (route.src, route.dst) == ("p00", "p01") and world.now > 11.0:
            wire.append((world.now, port, payload[0] if port == "rc" else payload))
        send(route, port, payload, *args)

    world.transport.send = spy
    world.start()
    world.scheduler.at(10.0, channels["p01"].send, "p00", "app", "x")
    world.run_for(11.0 + ACK_HOLD + 1.0)
    return wire


def test_a_due_keepalive_goes_out_as_the_owed_ack():
    assert keepalive_with_an_owed_ack(star=False) == [(15.0, "rc", "ACK")]
    # The question goes regardless; the ACK keeps its own hold.
    assert keepalive_with_an_owed_ack(star=True) == [
        (15.0, "fd.hb", True),
        (pytest.approx(11.0 + ACK_HOLD), "rc", "ACK"),
    ]


def test_receiver_side_silence_is_bounded_by_interval_plus_jitter():
    # Whatever the traffic does, the sender lets no link stay silent for
    # more than one interval, so the receiver hears it at least every
    # interval + jitter.  (A tick that skips a beat whenever anything
    # went out within the last interval guarantees only twice that.)
    interval, jitter = 15.0, 4.0
    for seed in range(5):
        world, fds = fd_world(
            seed=seed, hb=interval, link=LinkModel(1.0, jitter), suppression=True
        )
        rng = random.Random(seed)
        t = 0.0
        while t < 3_000.0:
            # Bursts and lulls: gaps from 1 ms to three intervals.
            t += rng.choice([1.0, 3.0, 7.0, 14.0, 16.0, 29.0, 44.0]) * rng.random()
            world.scheduler.at(
                t, lambda: world.transport.u_send("p00", "p01", "app", "x", layer="app")
            )
        world.start()
        heard = []
        while world.now < 3_000.0:
            world.run_for(0.25)
            at = fds["p01"].last_heard("p00")
            if at is not None and (not heard or at != heard[-1]):
                heard.append(at)
        gaps = [b - a for a, b in zip(heard, heard[1:])]
        assert max(gaps) <= interval + jitter + 0.25, (seed, max(gaps))
        assert world.metrics.counters.get("fd.suppressed") > 0
        assert world.metrics.counters.get("fd.explicit_hb") > 0
