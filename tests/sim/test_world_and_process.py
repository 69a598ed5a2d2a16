"""Unit tests for World, Process, Component and tracing."""

import pytest

from repro.sim.process import Component
from repro.sim.world import make_pid


class Echo(Component):
    """Test component: records everything dispatched to its port."""

    def __init__(self, process):
        super().__init__(process, "echo")
        self.received = []
        self.register_port("echo", lambda src, payload: self.received.append((src, payload)))
        self.started = False

    def start(self):
        self.started = True


def test_make_pid_is_zero_padded_and_sortable():
    pids = [make_pid(i) for i in (0, 2, 10, 11)]
    assert pids == ["p00", "p02", "p10", "p11"]
    assert sorted(pids) == pids


def test_spawn_creates_processes(world):
    pids = world.spawn(3)
    assert pids == ["p00", "p01", "p02"]
    assert world.pids() == pids
    assert world.alive() == pids


def test_duplicate_process_rejected(world):
    world.add_process("x")
    with pytest.raises(ValueError):
        world.add_process("x")


def test_component_start_called_once(world):
    world.spawn(1)
    echo = Echo(world.process("p00"))
    world.start()
    world.start()
    assert echo.started


def test_transport_delivers_between_processes(world):
    world.spawn(2)
    echo = Echo(world.process("p01"))
    world.transport.u_send("p00", "p01", "echo", {"k": 1})
    world.run_for(100.0)
    assert echo.received == [("p00", {"k": 1})]


def test_crashed_process_receives_nothing(world):
    world.spawn(2)
    echo = Echo(world.process("p01"))
    world.crash("p01")
    world.transport.u_send("p00", "p01", "echo", "lost")
    world.run_for(100.0)
    assert echo.received == []
    assert world.alive() == ["p00"]


def test_crash_suppresses_scheduled_timers(world):
    world.spawn(1)
    fired = []
    proc = world.process("p00")
    proc.schedule(10.0, fired.append, "x")
    world.crash("p00", at=5.0)
    world.run_for(100.0)
    assert fired == []


def test_unknown_port_is_traced_not_fatal(world):
    world.spawn(1)
    world.transport.u_send("p00", "p00", "nope", None)
    world.run_for(10.0)
    assert len(world.trace.select(event="unknown_port")) == 1


def test_duplicate_port_rejected(world):
    world.spawn(1)
    Echo(world.process("p00"))
    with pytest.raises(ValueError):
        world.process("p00").register_port("echo", lambda s, p: None)


def test_scheduled_crash(world):
    world.spawn(1)
    world.crash("p00", at=50.0)
    world.run_for(49.0)
    assert not world.process("p00").crashed
    world.run_for(2.0)
    assert world.process("p00").crashed
    assert world.process("p00").crash_time == 50.0


def test_partition_blocks_messages(world):
    world.spawn(2)
    echo = Echo(world.process("p01"))
    world.split([["p00"], ["p01"]])
    world.transport.u_send("p00", "p01", "echo", "blocked")
    world.run_for(50.0)
    assert echo.received == []
    world.heal()
    world.transport.u_send("p00", "p01", "echo", "through")
    world.run_for(50.0)
    assert echo.received == [("p00", "through")]


def test_partition_cuts_in_flight_messages(world):
    world.spawn(2)
    echo = Echo(world.process("p01"))
    world.transport.u_send("p00", "p01", "echo", "in-flight")
    world.split([["p00"], ["p01"]])  # split before delivery event fires
    world.run_for(50.0)
    assert echo.received == []


def test_trace_select_and_count(world):
    world.trace.emit(0.0, "p00", "c", "e", detail=1)
    world.trace.emit(1.0, "p01", "c", "e")
    world.trace.emit(2.0, "p00", "d", "f")
    assert len(world.trace.select(pid="p00")) == 2
    assert len(world.trace.select(component="c", event="e")) == 2
    assert world.trace.select(event="f")[0].time == 2.0


def test_msg_id_factory_is_shared_per_process(world):
    world.spawn(1)
    proc = world.process("p00")
    a = proc.msg_ids.next()
    b = proc.msg_ids.next()
    assert a != b and a.sender == b.sender == "p00"


# ----------------------------------------------------------------------
# Faults scheduled in the past (shrunk / time-coarsened fault plans)
# ----------------------------------------------------------------------
def test_past_crash_clamps_to_now_deterministically(world):
    world.spawn(1)
    world.run_for(100.0)
    world.crash("p00", at=30.0)  # behind the clock: clamp, don't raise
    assert not world.process("p00").crashed
    world.run_for(0.0)
    assert world.process("p00").crashed
    assert world.process("p00").crash_time == 100.0
    assert world.metrics.counters.get("world.fault_past_clamped") == 1
    assert len(world.trace.select(component="world", event="fault_past_clamped")) == 1


def test_past_split_and_heal_clamp_to_now(world):
    world.spawn(2)
    echo = Echo(world.process("p01"))
    world.run_for(200.0)
    world.split([["p00"], ["p01"]], at=10.0)
    world.run_for(0.0)
    world.transport.u_send("p00", "p01", "echo", "blocked")
    world.run_for(50.0)
    assert echo.received == []
    world.heal(at=40.0)  # also in the past
    world.run_for(0.0)
    world.transport.u_send("p00", "p01", "echo", "through")
    world.run_for(50.0)
    assert echo.received == [("p00", "through")]
    assert world.metrics.counters.get("world.fault_past_clamped") == 2


def test_past_recover_clamps_to_now(world):
    world.spawn(1)
    world.crash("p00")
    world.run_for(150.0)
    world.recover("p00", at=20.0)
    world.run_for(0.0)
    proc = world.process("p00")
    assert not proc.crashed
    assert proc.incarnation == 1


def test_future_faults_are_not_clamped(world):
    world.spawn(1)
    world.crash("p00", at=50.0)
    world.run_for(60.0)
    assert world.metrics.counters.get("world.fault_past_clamped") == 0
