"""Liveness-evidence properties once checked on an adaptive monitor.

The detector has no adaptive monitor any more: every monitor runs a fixed
timeout over the one evidence path.  What those tests checked beyond the
estimator still holds for a plain monitor and is kept here.
"""

from repro.fd.heartbeat import HeartbeatFailureDetector
from repro.net.topology import LinkModel
from repro.sim.world import World

from tests.conftest import run_until


def test_false_suspicion_recovers_like_diamond_s():
    world = World(seed=4, default_link=LinkModel(1.0, 1.0))
    pids = world.spawn(3)
    fds = {
        pid: HeartbeatFailureDetector(world.process(pid), lambda: list(pids), 10.0)
        for pid in pids
    }
    monitor = fds["p00"].monitor(["p01"], timeout=15.0)
    world.start()
    world.run_for(1_000.0)
    assert not monitor.suspects
    world.split([["p00"], ["p01", "p02"]])
    assert run_until(world, lambda: "p01" in monitor.suspects, timeout=20_000)
    world.heal()
    assert run_until(world, lambda: "p01" not in monitor.suspects, timeout=20_000)


def test_traffic_feeds_estimator_identically_to_heartbeats():
    # One evidence path: p01 only ever sends explicit heartbeats, p02 only
    # traffic (two datagrams per instant), at the same instants, to a
    # detector whose peers run none.  Sampled between arrivals, what the
    # detector has heard of the two is the same, and the monitor treats
    # them alike: no suspicion while they speak, both once they stop.
    world = World(seed=1, default_link=LinkModel(1.0, 0.0))
    pids = world.spawn(3)
    fd = HeartbeatFailureDetector(world.process("p00"), lambda: list(pids), 10.0)
    monitor = fd.monitor(["p01", "p02"], timeout=20.0)
    times = [3.0, 13.0, 24.0, 31.0, 45.0]
    heard = {"p01": [], "p02": []}
    send = world.transport.u_send
    for t in times:
        world.scheduler.at(t, lambda: send("p01", "p00", "fd.hb", False, layer="fd"))
        world.scheduler.at(t, lambda: send("p02", "p00", "rc", "x", layer="app"))
        world.scheduler.at(t + 0.5, lambda: send("p02", "p00", "rc", "y", layer="app"))
        for peer in heard:
            world.scheduler.at(t + 1.2, lambda peer=peer: heard[peer].append(fd.last_heard(peer)))
    world.start()
    world.run_for(50.0)
    assert heard["p01"] == heard["p02"] == [t + 1.0 for t in times]
    assert not monitor.suspects
    world.run_for(100.0)
    assert monitor.suspects == {"p01", "p02"}
