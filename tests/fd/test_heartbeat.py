"""Unit tests for the heartbeat failure detector and its monitors."""

import pytest

from repro.fd.heartbeat import HeartbeatFailureDetector
from repro.net.topology import LinkModel
from repro.sim.world import World

from tests.conftest import run_until


def suspect_records(world, pid):
    return world.trace.select(pid=pid, component="fd", event="suspect")


def trust_records(world, pid):
    return world.trace.select(pid=pid, component="fd", event="trust")


def fd_world(count=3, seed=1, hb=10.0, link=None):
    world = World(seed=seed, default_link=link or LinkModel(1.0, 1.0))
    pids = world.spawn(count)
    fds = {
        pid: HeartbeatFailureDetector(world.process(pid), lambda p=pids: list(p), hb)
        for pid in pids
    }
    return world, fds


def test_no_suspicion_without_failures():
    world, fds = fd_world()
    monitor = fds["p00"].monitor(["p01", "p02"], timeout=50.0)
    world.start()
    world.run_for(2_000.0)
    assert monitor.suspects == set()


def test_crashed_process_gets_suspected():
    world, fds = fd_world()
    monitor = fds["p00"].monitor(["p01", "p02"], timeout=50.0)
    world.start()
    world.run_for(200.0)
    world.crash("p02")
    assert run_until(world, lambda: "p02" in monitor.suspects, timeout=1_000)
    assert "p01" not in monitor.suspects


def test_suspicion_revised_when_heartbeats_resume():
    # Diamond-S-style behaviour: a partition causes a (wrong) suspicion
    # which is withdrawn once communication is restored.
    world, fds = fd_world()
    suspected = []
    monitor = fds["p00"].monitor(["p01"], timeout=50.0)
    monitor.subscribe(suspected.append)
    world.start()
    world.run_for(100.0)
    world.split([["p00"], ["p01", "p02"]])
    assert run_until(world, lambda: "p01" in monitor.suspects, timeout=1_000)
    world.heal()
    assert run_until(world, lambda: "p01" not in monitor.suspects, timeout=1_000)
    assert suspected == ["p01"]
    assert [r.details["peer"] for r in trust_records(world, "p00")] == ["p01"]


def test_traffic_is_evidence_exactly_as_a_heartbeat_is():
    # One evidence path: p01 only ever sends heartbeats, p02 only
    # traffic, at the same instants, to a detector whose peers run none.
    # The monitor cannot tell the two apart: it suspects both at once when
    # they fall silent, and revises both false suspicions on the next
    # datagram each sends (◇S).
    world = World(seed=1, default_link=LinkModel(1.0, 0.0))
    pids = world.spawn(3)
    fd = HeartbeatFailureDetector(world.process("p00"), lambda: list(pids), 10.0)
    fd.monitor(["p01", "p02"], timeout=30.0)
    send = world.transport.u_send
    for t in (0.0, 10.0, 20.0, 100.0):
        world.scheduler.at(t, lambda: send("p01", "p00", "fd.hb", False, layer="fd"))
        world.scheduler.at(t, lambda: send("p02", "p00", "rc", "x", layer="app"))
    world.start()
    world.run_for(120.0)
    assert fd.last_heard("p01") == fd.last_heard("p02") == 101.0
    edges = [
        (r.event, r.details["peer"], r.time)
        for r in world.trace.select(pid="p00", component="fd")
        if r.event in ("suspect", "trust")
    ]
    assert edges == [
        ("suspect", "p01", 51.0), ("suspect", "p02", 51.0),
        ("trust", "p01", 101.0), ("trust", "p02", 101.0),
    ]


def test_independent_timeouts_per_monitor():
    # Section 3.3.2: consensus uses a small timeout, monitoring a large
    # one, over the same heartbeat stream.
    world, fds = fd_world()
    small = fds["p00"].monitor(["p01"], timeout=40.0)
    large = fds["p00"].monitor(["p01"], timeout=5_000.0)
    world.start()
    world.run_for(100.0)
    world.crash("p01")
    assert run_until(world, lambda: "p01" in small.suspects, timeout=2_000)
    assert "p01" not in large.suspects
    assert run_until(world, lambda: "p01" in large.suspects, timeout=10_000)


def test_every_subscriber_hears_every_suspicion_top_down():
    # One monitor, any number of suspicion listeners: each sees every
    # later suspicion within the edge's event, top-down — the latest
    # subscriber (in a stack: the highest layer) hears first.  A trust
    # edge tells nobody: it moves ``suspects`` and writes its record.
    world, fds = fd_world()
    first, second, order = [], [], []
    monitor = fds["p00"].monitor(["p01"], timeout=50.0)
    monitor.subscribe(lambda q: first.append((q, world.now)))
    monitor.subscribe(lambda q: second.append((q, world.now)))
    monitor.subscribe(lambda q: order.append("first"))
    monitor.subscribe(lambda q: order.append("second"))
    world.start()
    world.run_for(100.0)
    world.split([["p00"], ["p01", "p02"]])
    assert run_until(world, lambda: "p01" in monitor.suspects, timeout=1_000)
    world.heal()
    assert run_until(world, lambda: "p01" not in monitor.suspects, timeout=1_000)
    (suspected,) = suspect_records(world, "p00")
    (trusted,) = trust_records(world, "p00")
    assert first == second == [("p01", suspected.time)] and order == ["second", "first"]
    assert trusted.time > suspected.time
    # A later subscriber hears the next suspicion, and so does everybody.
    late = []
    monitor.subscribe(late.append)
    world.crash("p01")
    assert run_until(world, lambda: "p01" in monitor.suspects, timeout=1_000)
    assert late == ["p01"] and [q for q, _ in first] == ["p01", "p01"] and first == second


def test_monitor_forgets_departed_peers():
    world, fds = fd_world()
    peers = ["p01", "p02"]
    monitor = fds["p00"].monitor(lambda: list(peers), timeout=50.0)
    world.start()
    world.run_for(100.0)
    world.crash("p02")
    assert run_until(world, lambda: "p02" in monitor.suspects, timeout=1_000)
    peers.remove("p02")
    world.run_for(100.0)
    assert monitor.suspects == set()


def test_never_suspects_self():
    world, fds = fd_world()
    monitor = fds["p00"].monitor(["p00", "p01"], timeout=10.0)
    world.start()
    world.run_for(1_000.0)
    assert "p00" not in monitor.suspects


# ----------------------------------------------------------------------
# Monitors run on expiry timers, not on a tick
# ----------------------------------------------------------------------
def test_crash_is_suspected_at_last_heard_plus_timeout_exactly():
    world, fds = fd_world(hb=10.0, link=LinkModel(1.0, 3.0))
    fds["p00"].monitor(["p01"], timeout=37.0)
    world.start()
    world.run_for(203.0)
    world.crash("p01")
    world.run_for(10.0)  # whatever was in flight has landed
    last_heard = fds["p00"].last_heard("p01")
    world.run_for(100.0)
    (record,) = suspect_records(world, "p00")
    # Not rounded up to a 10 ms tick: the timer was armed for the expiry.
    assert record.time == pytest.approx(last_heard + 37.0, abs=1e-6)
    assert record.time % 10.0 > 1e-3


def test_peer_that_enters_the_set_and_never_speaks_is_suspected_within_two_timeouts():
    world, fds = fd_world()
    peers = ["p01"]
    monitor = fds["p00"].monitor(lambda: list(peers), timeout=50.0)
    world.start()
    world.run_for(333.0)
    peers.append("p09")  # no such process: it will never be heard
    entered = world.now
    assert run_until(world, lambda: "p09" in monitor.suspects, timeout=1_000, step=1.0)
    # First seen by the next scan (at most one timeout away), then given
    # a full timeout of grace from there.
    assert 50.0 <= world.now - entered <= 2 * 50.0 + 1.0
    assert "p01" not in monitor.suspects


# ----------------------------------------------------------------------
# The detector's cadence follows its readers
# ----------------------------------------------------------------------
def heartbeat_times(world, src, dst):
    sent = []
    send = world.transport.send

    def spy(route, port, payload, *args):
        if (route.src, route.dst, port) == (src, dst, "fd.hb"):
            sent.append((world.now, payload))
        send(route, port, payload, *args)

    world.transport.send = spy
    return sent


def test_traditional_stream_is_constant_whatever_plain_monitors_it_holds():
    # The baselines' detector: suppression off, plain monitors — which
    # watch every peer first-hand, whatever list they were given — so
    # every link gets the constant stream at ``heartbeat_interval``, to
    # the microsecond, and its one flag never asks for anything.
    world, fds = fd_world(hb=10.0)
    fds["p00"].monitor(["p01"], timeout=37.0)
    fds["p00"].monitor(["p01", "p02"], timeout=5_000.0)
    to_p01 = heartbeat_times(world, "p00", "p01")
    world.start()
    world.run_for(100.0)
    to_p02 = heartbeat_times(world, "p00", "p02")
    from_bare = heartbeat_times(world, "p01", "p00")  # a detector with no monitor
    world.run_for(100.0)
    assert to_p01 == [(10.0 * k, False) for k in range(21)]
    assert to_p02 == from_bare == [(10.0 * k, False) for k in range(11, 21)]
    assert all(fd._interval(peer) == 10.0 for fd in fds.values() for peer in fds)


def test_the_tap_hands_a_monitor_only_its_suspects_datagrams():
    # The probe is a suspicion of p01 that nothing revises: the fast
    # monitor's timer is off and its ``_heard`` only records.  Datagrams
    # from p02, whom it trusts, reach it only as ``last_heard``.
    world, fds = fd_world()
    fd = fds["p00"]
    fast = fd.monitor(["p01", "p02"], timeout=40.0)
    slow = fd.monitor(["p01", "p02"], timeout=2_000.0)
    world.start()
    world.run_for(50.0)
    heard = []
    fast._heard = heard.append
    fast._timer.cancel()
    fast.suspects.add("p01")
    world.run_for(50.0)
    assert fd._monitors == [fast, slow] and "p01" in heard and "p02" not in heard
    assert slow.suspects == set()
