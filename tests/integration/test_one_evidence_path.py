"""One evidence path, one suspicion object, on a built stack.

* Liveness reaches the detector through the transport tap alone: no
  datagram of the reliable channel carries a liveness field, a heartbeat
  carries one flag that is not about liveness, and a stack keeps no
  arrival statistics anywhere.
* The small-timeout monitor is the object the layers are built with: one
  suspicion edge reaches reliable broadcast, consensus and generic
  broadcast inside one event.
"""

import sys
from pathlib import Path

import pytest

from repro.core.new_stack import NewArchitectureStack, StackConfig, build_new_group
from repro.fd.heartbeat import Monitor, StarMonitor
from repro.gbcast.conflict import RBCAST_CLASS
from repro.monitoring.component import MonitoringPolicy
from repro.net.topology import LinkModel
from repro.net.transport import UnreliableTransport
from repro.sim.world import World

from tests.conftest import edge_nacks

_PERF = Path(__file__).resolve().parents[2] / "benchmarks" / "perf"

#: Body length behind the four header fields, per kind of rc datagram.
RC_BODY_FIELDS = {"DATA": 3, "BATCH": 1, "ACK": 0, "GAP": 1}


@pytest.fixture(scope="module")
def failover_run():
    """The observatory's ``failover`` reference schedule (quick cut), run
    by the observatory's own harness: n = 5, the round-0 coordinator
    crashes under load, is excluded, recovers and rejoins.  Returns the
    group and every datagram handed to the transport."""
    sys.path.insert(0, str(_PERF))  # the harness imports its siblings by bare name
    try:
        import harness
        import workloads
    finally:
        sys.path.remove(str(_PERF))
    workload = workloads.BY_NAME["failover"].quick()
    wire = []
    send = UnreliableTransport.send

    def spy(self, route, port, payload, *args):
        wire.append((port, payload))
        send(self, route, port, payload, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(UnreliableTransport, "send", spy)
        group = harness.Group(workload, seed=1)
        group.drive(workloads.reference_schedule(workload, seed=1))
        assert group.drain()
    return group, wire


def test_no_datagram_of_the_channel_carries_a_liveness_field(failover_run):
    _group, wire = failover_run
    kinds = set()
    for port, datagram in wire:
        if port != "rc":
            continue
        kind, incarnation, believes, ack = datagram[:4]
        kinds.add(kind)
        assert [type(f) for f in (kind, incarnation, believes, ack)] == [str, int, int, int]
        assert len(datagram) == 4 + RC_BODY_FIELDS[kind], datagram
    # Data, coalesced data and pure ACKs all crossed the wire.
    assert kinds >= {"DATA", "BATCH", "ACK"}


def test_a_heartbeat_carries_nothing(failover_run):
    group, wire = failover_run
    counters = group.world.metrics.counters
    heartbeats = [payload for port, payload in wire if port == "fd.hb"]
    assert len(heartbeats) == counters.get("fd.explicit_hb") > 0
    # Nothing about liveness, that is: its one byte says whether the
    # sender watches the receiver first-hand (R4), where ``None`` was.
    assert set(heartbeats) == {True, False}
    # ... and still did its job: the crash was detected, the survivors
    # moved on and the victim came back.
    assert counters.get("fd.suppressed") > 0
    assert counters.get("monitoring.exclusions_requested") > 0
    assert group.actor_of[group.workload.victim].endswith("#1")


def test_a_stack_holds_two_monitors_and_no_arrival_statistics(failover_run):
    group, _wire = failover_run
    for api in group.apis.values():
        stack = api.stack
        # consensus / gbcast / rbcast share one; monitoring has its own.
        assert [type(m) for m in stack.fd._monitors] == [StarMonitor, Monitor]
        assert not [name for name in vars(stack.fd) if "gap" in name or "sample" in name]
        assert not [name for name in vars(stack.channel) if name.startswith("hb_")]
    assert group.world.metrics.counters.get("fd.piggyback_samples") == 0


# ----------------------------------------------------------------------
# One suspicion edge, three layers, one event
# ----------------------------------------------------------------------
def test_one_suspicion_edge_reaches_all_three_layers_in_the_same_event():
    # p00 is round-0 coordinator and stage closer.  It dies holding the
    # ack p02's g-broadcast waits for and the PROPOSE p01's a-broadcast
    # waits for; its own last packet is not yet stable.  When p01's
    # monitor suspects it, within that one event: rbcast asks p02 for
    # what it lacks, consensus leaves round 0, and generic broadcast
    # (p01 is the closer now) orders the ENDSTAGE.
    config = StackConfig(monitoring=MonitoringPolicy(exclusion_timeout=100_000.0))
    world = World(seed=3, default_link=LinkModel(1.0, 1.0))
    stacks = build_new_group(world, 3, config=config)
    world.start()
    world.run_for(100.0)
    stacks["p00"].gbcast.gbcast_payload("early", RBCAST_CLASS)
    world.run_for(20.0)
    world.crash("p00")
    p01 = stacks["p01"]
    stacks["p02"].gbcast.gbcast_payload("stranded", RBCAST_CLASS)
    p01.abcast.abcast(p01.process.msg_ids.message("ordered"))
    world.run_for(10.0)

    def state():
        mine = lambda records: [r for r in records if r.pid == "p01"]
        return {
            "nacks": len(mine(world.trace.select(component="rb", event="nack"))),
            "rounds": sorted(i.round for i in p01.consensus._instances.values() if not i.decided),
            "closes": len(mine(world.trace.select(component="gbcast", event="endstage"))),
        }

    # Subscribed last, told first: this listener runs inside the edge's
    # event before any layer has acted on it.
    inside = []
    p01.suspicion_monitor.subscribe(lambda q: inside.append((q, world.now, state())))
    assert p01.gbcast.monitor is p01.consensus.monitor is p01.rbcast.monitor
    while not inside:
        world.run_for(0.05)
    (suspect, at, before), = inside
    assert suspect == "p00"
    assert before == {"nacks": 0, "rounds": [0], "closes": 0}
    assert world.now - at <= 0.05
    # (Two instances by now: the ENDSTAGE's own started past the suspect.)
    assert state() == {"nacks": 1, "rounds": [1, 1], "closes": 1}
    # All of it at the edge's own instant, and top-down: what orders (the
    # ENDSTAGE) is on the FIFO links before the repair request.
    mine = [r for r in world.trace.records if r.pid == "p01" and r.time == at]
    events = [(r.component, r.event) for r in mine]
    assert events.index(("fd", "suspect")) < events.index(("gbcast", "endstage"))
    assert events.index(("gbcast", "endstage")) < events.index(("rb", "nack"))
    assert edge_nacks(world, "p01", "p00") == ["p02"]
    # Nothing was lost on the way: both messages are delivered everywhere
    # that is alive.
    delivered = lambda s: [m.payload for m, _path in s.gbcast.delivered_log]
    assert world.run_until(
        lambda: all(delivered(stacks[q]) == ["early", "stranded"] for q in ("p01", "p02")),
        timeout=5_000,
    )


def test_the_stack_is_wired_by_constructors_alone():
    # Every component holds the monitor it was built with; building a
    # stack assigns nothing on a component after constructing it.
    import ast
    import inspect
    import textwrap

    source = textwrap.dedent(inspect.getsource(NewArchitectureStack.__init__))
    assigned = [
        ast.unparse(target)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
    ]
    # ``self.<component> = ...`` and locals only: no ``self.a.b = ...``.
    assert [t for t in assigned if t.count(".") > 1] == []
    assert "on_suspect" not in source
