"""Unit-level crash-recovery mechanics: incarnations, fencing, rebuild.

These test the *mechanisms* (incarnation numbers, timer/transport/channel
fencing, failure-detector reincarnation tracking) in isolation; the
end-to-end rejoin scenarios live in tests/integration/test_recovery_scenarios.py.
"""

from __future__ import annotations

from repro.core.api import GroupCommunication
from repro.core.new_stack import (
    HEARTBEAT_INTERVAL,
    StackConfig,
    build_new_group,
    enable_recovery,
)
from repro.fd.heartbeat import HeartbeatFailureDetector
from repro.monitoring.component import MonitoringPolicy
from repro.net.message import MsgIdFactory
from repro.net.reliable import ReliableChannel
from repro.net.topology import LinkModel
from repro.sim.world import World

from tests.conftest import run_until


def test_recover_bumps_incarnation_and_clears_volatile_state():
    world = World(seed=1)
    world.spawn(1)
    process = world.process("p00")
    process.register_port("x", lambda src, p: None)
    assert process.incarnation == 0
    world.crash("p00")
    world.recover("p00")
    assert process.incarnation == 1
    assert not process.crashed
    assert process._ports == {}
    assert process.components() == []


def test_recover_is_noop_on_live_process():
    world = World(seed=1)
    world.spawn(1)
    world.recover("p00")
    assert world.process("p00").incarnation == 0


def test_old_incarnation_timers_never_fire():
    world = World(seed=1)
    world.spawn(1)
    process = world.process("p00")
    fired = []
    process.schedule(50.0, lambda: fired.append("old"))
    world.crash("p00")
    world.recover("p00")
    process.schedule(50.0, lambda: fired.append("new"))
    world.run_for(200.0)
    assert fired == ["new"]


def test_msgid_factory_never_collides_across_incarnations():
    world = World(seed=1)
    world.spawn(1)
    process = world.process("p00")
    old_ids = [process.msg_ids.next() for _ in range(3)]
    world.crash("p00")
    world.recover("p00")
    new_ids = [process.msg_ids.next() for _ in range(3)]
    assert not set(old_ids) & set(new_ids)
    assert all(i.incarnation == 0 for i in old_ids)
    assert all(i.incarnation == 1 for i in new_ids)
    assert str(new_ids[0]) == "p00~1#0"


def test_msgid_factory_restarts_sequence_per_incarnation():
    factory = MsgIdFactory("p07", incarnation=2)
    first = factory.next()
    assert (first.sender, first.seq, first.incarnation) == ("p07", 0, 2)


def test_transport_drops_datagrams_addressed_to_dead_incarnation():
    # A datagram in flight when its destination recovers was addressed to
    # the dead incarnation: it must be fenced, not delivered.
    world = World(seed=1, default_link=LinkModel(5.0, 0.0))
    world.spawn(2)
    got = []
    world.process("p01").register_port("sink", lambda src, p: got.append(p))
    world.start()
    world.transport.u_send("p00", "p01", "sink", "in-flight")
    world.crash("p01")
    world.process("p01").recover()
    world.process("p01").register_port("sink", lambda src, p: got.append(p))
    world.run_for(50.0)
    assert got == []
    assert world.metrics.counters.get("net.stale_incarnation_dropped") == 1


def test_transport_drops_datagrams_sent_by_dead_incarnation():
    # Symmetric fence: a datagram sent by an incarnation that died before
    # delivery must not arrive stamped with the sender's reused pid.
    world = World(seed=1, default_link=LinkModel(5.0, 0.0))
    world.spawn(2)
    got = []
    world.process("p01").register_port("sink", lambda src, p: got.append(p))
    world.start()
    world.transport.u_send("p00", "p01", "sink", "from-the-grave")
    world.crash("p00")
    world.process("p00").recover()
    world.run_for(50.0)
    assert got == []
    assert world.metrics.counters.get("net.stale_incarnation_dropped") == 1


def test_reliable_channel_renumbers_for_reincarnated_peer():
    # Messages unacked at the peer's crash are re-sent to the fresh
    # incarnation, renumbered from 0, in the original FIFO order.
    world = World(seed=1)
    world.spawn(2)
    sender = ReliableChannel(world.process("p00"))
    ReliableChannel(world.process("p01"))
    got = []
    world.process("p01").register_port("sink", lambda src, p: got.append(p))
    world.start()
    # Establish the connection: one acked message so the sender's next
    # sequence number is non-zero and it knows p01's incarnation 0.
    sender.send("p01", "sink", "hello")
    assert run_until(world, lambda: got == ["hello"], timeout=5_000)
    world.run_for(50.0)
    world.crash("p01")
    for i in range(5):
        sender.send("p01", "sink", i)
    world.run_for(100.0)
    assert got == ["hello"]
    # Recover: fresh incarnation, fresh channel + sink.
    world.process("p01").recover()
    ReliableChannel(world.process("p01"))
    world.process("p01").register_port("sink", lambda src, p: got.append(p))
    world.start()
    assert run_until(world, lambda: len(got) == 6, timeout=10_000)
    assert got == ["hello", 0, 1, 2, 3, 4]
    assert world.metrics.counters.get("rc.peer_reincarnations") >= 1


def test_failure_detector_tracks_incarnations_and_fires_listener():
    world = World(seed=1)
    world.spawn(2)
    peers = ["p00", "p01"]
    fds = {
        pid: HeartbeatFailureDetector(world.process(pid), lambda: peers)
        for pid in peers
    }
    world.start()
    world.run_for(100.0)
    assert fds["p00"].incarnation_of("p01") == 0
    events = []
    fds["p00"].on_reincarnation(lambda pid, inc: events.append((pid, inc)))
    world.crash("p01")
    world.run_for(50.0)
    world.process("p01").recover()
    fds["p01"] = HeartbeatFailureDetector(world.process("p01"), lambda: peers)
    world.start()
    world.run_for(100.0)
    assert fds["p00"].incarnation_of("p01") == 1
    assert events == [("p01", 1)]


def test_monitor_gives_reentering_peer_a_fresh_grace_period():
    # A peer that leaves the monitored set and later re-enters (a
    # recovered process re-admitted to the view) must get a full timeout
    # of silence before suspicion — stale last-heard evidence from before
    # its crash must not trigger an instant re-suspect.
    world = World(seed=1)
    world.spawn(2)
    peers: list[str] = ["p00", "p01"]
    fd = HeartbeatFailureDetector(world.process("p00"), lambda: peers)
    HeartbeatFailureDetector(world.process("p01"), lambda: list(peers))
    monitor = fd.monitor(lambda: peers, timeout=100.0)
    world.start()
    world.run_for(50.0)
    world.crash("p01")
    assert run_until(world, lambda: monitor.suspected("p01"), timeout=1_000)
    peers.remove("p01")               # excluded from the view
    world.run_for(500.0)
    assert not monitor.suspected("p01")
    peers.append("p01")               # re-admitted (still crashed, silent)
    world.run_for(60.0)
    assert not monitor.suspected("p01")   # grace period running
    world.run_for(200.0)
    assert monitor.suspected("p01")       # silent past a full fresh timeout


def test_monitoring_clears_votes_on_reincarnation():
    config = StackConfig(monitoring=MonitoringPolicy(exclusion_timeout=400.0, votes_required=3))
    world = World(seed=5)
    stacks = build_new_group(world, 3, config=config)
    world.start()
    world.run_for(100.0)
    world.crash("p02")
    assert run_until(
        world,
        lambda: stacks["p00"].monitoring._votes.get("p02"),
        timeout=5_000,
    )
    enable_recovery(world, stacks, config=config)
    world.recover("p02")
    assert run_until(
        world,
        lambda: world.metrics.counters.get("monitoring.suspicions_cleared") >= 1,
        timeout=5_000,
    )
    assert not stacks["p00"].monitoring._votes.get("p02")


def test_world_start_is_idempotent_across_rebuilds():
    world = World(seed=2)
    stacks = build_new_group(world, 3)
    world.start()
    world.run_for(100.0)
    enable_recovery(world, stacks)
    world.crash("p02")
    world.run_for(50.0)
    world.recover("p02")
    beats_before = len(world.trace.select(pid="p02", component="fd"))
    world.start()
    world.start()
    world.run_for(100.0)
    # Exactly one heartbeat loop on the recovered process: duplicated
    # start() calls must not double the beat rate.
    beats = len(world.trace.select(pid="p02", component="fd")) - beats_before
    assert beats <= 100.0 / HEARTBEAT_INTERVAL + 2


def test_recovery_scenario_is_deterministic():
    # Byte-identical trace dumps for two runs of the same seeded
    # crash/recover scenario — the determinism contract recovery relies on.
    def run() -> str:
        world = World(seed=9)
        stacks = build_new_group(
            world, 3, config=StackConfig(monitoring=MonitoringPolicy(exclusion_timeout=600.0))
        )
        apis = {pid: GroupCommunication(s) for pid, s in stacks.items()}
        enable_recovery(
            world,
            stacks,
            on_rebuild=lambda pid, s: apis.__setitem__(pid, GroupCommunication(s)),
        )
        world.start()
        for i in range(4):
            apis["p00"].abcast(("m", i))
        world.crash("p02", at=200.0)
        world.recover("p02", at=800.0)
        world.run_for(3_000.0)
        apis["p01"].abcast("late")
        world.run_for(2_000.0)
        return world.trace.dump()

    assert run() == run()
