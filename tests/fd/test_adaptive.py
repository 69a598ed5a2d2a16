"""Unit tests for the adaptive failure-detection monitor."""

import math

from repro.core.new_stack import StackConfig, build_new_group
from repro.fd.adaptive import adaptive_monitor
from repro.fd.heartbeat import HeartbeatFailureDetector
from repro.net.topology import LinkModel
from repro.sim.world import World

from tests.conftest import run_until


def adaptive_world(count=3, seed=1, hb=10.0, link=None):
    world = World(seed=seed, default_link=link or LinkModel(1.0, 1.0))
    pids = world.spawn(count)
    fds = {
        pid: HeartbeatFailureDetector(world.process(pid), lambda p=pids: list(p), hb)
        for pid in pids
    }
    return world, fds


def test_timeout_is_conservative_before_history():
    world, fds = adaptive_world()
    monitor = adaptive_monitor(fds["p00"], ["p01"], max_timeout=3_000.0)
    world.start()
    assert monitor.timeout_for("p01") == 3_000.0


def test_timeout_shrinks_on_quiet_network():
    world, fds = adaptive_world(hb=10.0)
    monitor = adaptive_monitor(fds["p00"], ["p01"], max_timeout=3_000.0, min_timeout=15.0)
    world.start()
    world.run_for(2_000.0)
    timeout = monitor.timeout_for("p01")
    # Mean gap ~10 ms, low jitter: the timeout converges near the
    # heartbeat interval, far below the conservative maximum.
    assert timeout < 100.0
    assert timeout >= 15.0


def test_timeout_grows_with_jitter():
    quiet_world, quiet_fds = adaptive_world(seed=2, link=LinkModel(1.0, 0.5))
    quiet = adaptive_monitor(quiet_fds["p00"], ["p01"])
    quiet_world.start()
    quiet_world.run_for(2_000.0)

    noisy_world, noisy_fds = adaptive_world(
        seed=2, link=LinkModel(1.0, 40.0, drop_prob=0.2)
    )
    noisy = adaptive_monitor(noisy_fds["p00"], ["p01"])
    noisy_world.start()
    noisy_world.run_for(2_000.0)
    assert noisy.timeout_for("p01") > quiet.timeout_for("p01")


def test_crash_detected_quickly_after_adaptation():
    world, fds = adaptive_world(seed=3)
    monitor = adaptive_monitor(fds["p00"], ["p01"], max_timeout=10_000.0)
    world.start()
    world.run_for(2_000.0)
    adapted = monitor.timeout_for("p01")
    assert adapted < 200.0
    world.crash("p01")
    crash_at = world.now
    assert run_until(world, lambda: "p01" in monitor.suspects, timeout=10_000)
    # Detection took roughly the adapted timeout, not the 10 s maximum.
    assert world.now - crash_at < 5 * adapted + 100.0


def test_false_suspicion_recovers_like_diamond_s():
    world, fds = adaptive_world(seed=4)
    monitor = adaptive_monitor(fds["p00"], ["p01"], min_timeout=10.0)
    world.start()
    world.run_for(1_000.0)
    world.split([["p00"], ["p01", "p02"]])
    assert run_until(world, lambda: "p01" in monitor.suspects, timeout=20_000)
    world.heal()
    assert run_until(world, lambda: "p01" not in monitor.suspects, timeout=20_000)


# ----------------------------------------------------------------------
# Estimation mechanics (mean + safety_factor * stddev + margin, clamped)
# ----------------------------------------------------------------------
def lone_fd(seed=1, count=2, **monitor_args):
    """One detector with one adaptive monitor, peers without FDs: the
    arrivals it sees are fully controlled.  The estimator samples once
    per 10 ms heartbeat period of this detector's clock."""
    world = World(seed=seed, default_link=LinkModel(1.0, 0.0))
    pids = world.spawn(count)
    fd = HeartbeatFailureDetector(
        world.process("p00"), lambda: list(pids), heartbeat_interval=10.0
    )
    monitor = adaptive_monitor(fd, pids[1:], **monitor_args)
    world.start()
    return world, fd, monitor


def inject_arrivals(world, fd, times, src="p01", port="rc"):
    """A datagram from ``src`` reaches the detector's tap at each time."""
    for t in times:
        world.scheduler.at(t, lambda: fd._on_traffic(src, 0, port))
    world.run_for(max(times) + 1.0)


def test_estimator_records_interarrival_gaps():
    world, fd, monitor = lone_fd()
    inject_arrivals(world, fd, [5.0, 15.0, 25.0, 35.0, 45.0])
    assert monitor.arrival_gaps("p01") == [10.0, 10.0, 10.0, 10.0]
    # The detector keeps what fixed monitors read and no gap statistics.
    assert not [name for name in vars(fd) if "gap" in name or "sample" in name]


def test_timeout_formula_and_clamping():
    # Zero variance, small mean: 10 + 0 + 5 = 15, clamped up to min.
    world, fd, monitor = lone_fd(
        safety_factor=2.0, margin=5.0, min_timeout=20.0, max_timeout=60.0
    )
    inject_arrivals(world, fd, [5.0, 15.0, 25.0, 35.0, 45.0])
    assert monitor.timeout_for("p01") == 20.0
    # Jittery gaps land between the clamps: exactly the formula.
    world, fd, monitor = lone_fd(
        safety_factor=2.0, margin=5.0, min_timeout=20.0, max_timeout=600.0
    )
    inject_arrivals(world, fd, [0.0, 10.0, 30.0, 60.0, 100.0])  # gaps 10,20,30,40
    gaps = monitor.arrival_gaps("p01")
    mean = sum(gaps) / len(gaps)
    stddev = math.sqrt(sum((g - mean) ** 2 for g in gaps) / len(gaps))
    assert monitor.timeout_for("p01") == mean + 2.0 * stddev + 5.0
    # Huge gaps: clamped down to max.
    world, fd, monitor = lone_fd(max_timeout=60.0)
    inject_arrivals(world, fd, [0.0, 1_000.0, 2_000.0, 3_000.0, 4_000.0])
    assert monitor.timeout_for("p01") == 60.0


def test_samples_dedup_per_heartbeat_epoch():
    # A burst of datagrams within one heartbeat period of the receiver is
    # ONE liveness sample — the estimator must not mistake traffic bursts
    # for short arrival gaps.
    world, fd, monitor = lone_fd()
    inject_arrivals(world, fd, [5.0, 6.0, 7.0, 15.0, 16.0, 25.0])
    assert monitor.arrival_gaps("p01") == [10.0, 10.0]
    # ... while every one of them is liveness evidence.
    assert fd.last_heard("p01") == 25.0


def test_traffic_feeds_estimator_identically_to_heartbeats():
    # One evidence path: the estimator cannot tell an explicit heartbeat
    # from a datagram of traffic.  Same arrival times (through the real
    # transport tap) must yield the same gap history, extra datagrams
    # within a period notwithstanding.
    world, fd, monitor = lone_fd(count=3)
    times = [3.0, 13.0, 24.0, 31.0, 45.0]
    for t in times:
        world.scheduler.at(t, lambda: world.u_send("p01", "p00", "fd.hb", None, layer="fd"))
        world.scheduler.at(t, lambda: world.u_send("p02", "p00", "rc", "x", layer="app"))
        world.scheduler.at(t + 0.5, lambda: world.u_send("p02", "p00", "rc", "y", layer="app"))
    world.run_for(50.0)
    assert monitor.arrival_gaps("p02") == monitor.arrival_gaps("p01")
    assert monitor.arrival_gaps("p01") == [10.0, 11.0, 7.0, 14.0]


def test_adaptive_timeout_converges_under_suppression():
    # Full stack, busy links: explicit heartbeats are mostly suppressed,
    # yet the adaptive timeout converges to the same small values as a
    # heartbeat-fed estimator would — with nothing but the monitor
    # attached to the stack's detector: nothing is wired into the channel
    # and no header field carries liveness.
    config = StackConfig(coalesce_delay=1.0, relay_policy="lazy")
    world = World(seed=9, default_link=LinkModel(1.0, 1.0))
    stacks = build_new_group(world, 3, config=config)
    monitor = adaptive_monitor(stacks["p00"].fd, ["p01"], max_timeout=5_000.0)
    world.start()
    for i in range(100):
        world.scheduler.at(
            5.0 * i,
            lambda i=i: stacks["p01"].abcast.abcast(
                stacks["p01"].process.msg_ids.message(("m", i))
            ),
        )
    world.run_for(500.0)
    # Under load: a sample per heartbeat period, hardly a heartbeat.
    busy = monitor.arrival_gaps("p01")
    assert len(busy) >= 30 and max(busy) < 2 * stacks["p00"].fd.heartbeat_interval
    world.run_for(200.0)
    assert world.metrics.counters.get("fd.suppressed") > 0
    assert monitor.timeout_for("p01") < 200.0
    assert not monitor.suspects
