"""One closer per stage: only the first unsuspected member orders an
ENDSTAGE; everyone else freezes and waits (DESIGN.md §5)."""

from types import SimpleNamespace

import pytest

from repro.checkers import check_all
from repro.core.new_stack import StackConfig, build_new_group
from repro.gbcast.conflict import ABCAST_CLASS, RBCAST_CLASS
from repro.gbcast.thrifty import ACK_PORT
from repro.membership.view import View
from repro.monitoring.component import MonitoringPolicy
from repro.net.topology import LinkModel
from repro.sim.world import World

from tests.conftest import new_group, run_until

NO_EXCLUSION = MonitoringPolicy(exclusion_timeout=100_000.0)


def delivered(stack):
    return [m.payload for m, _path in stack.gbcast.delivered_log]


def assert_clean(stacks):
    history = {pid: [m for m, _path in s.gbcast.delivered_log] for pid, s in stacks.items()}
    result = check_all(history, total_order=True)
    assert result.ok, result.violations


def endstage_reasons(world):
    return sorted(
        (r.pid, r.details["reason"])
        for r in world.trace.select(component="gbcast", event="endstage")
    )


@pytest.mark.parametrize("count", [3, 5])
def test_all_conflicting_run_orders_one_endstage_per_stage(count):
    world = World(seed=5, default_link=LinkModel(3.0, 8.0))
    stacks = build_new_group(world, count)
    world.start()
    pids = sorted(stacks)
    ops = 40
    for i in range(ops):
        sender = stacks[pids[i % count]].gbcast
        world.scheduler.at(20.0 + 25.0 * i, sender.gbcast_payload, ("op", i), ABCAST_CLASS)
    assert run_until(
        world, lambda: all(len(delivered(s)) == ops for s in stacks.values()), 60_000
    )
    world.run_for(500.0)
    counters = world.metrics.counters
    (stages,) = {s.gbcast.stage for s in stacks.values()}
    # One ENDSTAGE per closed stage, and never a stage per op: every
    # pair conflicts, but the ENDSTAGE an op trips orders that op too
    # (its tail) and the next op finds a clean stage.
    assert counters.get("gbcast.endstages") == stages
    assert 1 <= stages <= ops - 1
    # Every other member defers to the closer — unless the closer's
    # ENDSTAGE reaches it before the conflict does, which link jitter
    # decides for a stage or two in forty.
    others = stages * (count - 1)
    assert 0.9 * others <= counters.get("gbcast.closes_deferred") <= others
    # ``abcast.instances`` counts every process's proposal of an
    # instance; at this pacing (25 ms apart) an instance serves two ops.
    assert counters.get("abcast.instances") / count <= 0.6 * ops
    assert_clean(stacks)


def test_closer_crash_costs_one_suspicion_timeout():
    # p00 — closer and round-0 coordinator — dies with the stage open:
    # p01 and p02 see the conflict, defer to p00, and must be moving
    # again one suspicion timeout later (p01 takes over at the edge and
    # consensus NACKs the already-suspected coordinator at once), not
    # after a second timeout and not after the deferral's own backstop.
    config = StackConfig(suspicion_timeout=200.0, monitoring=NO_EXCLUSION)
    world, stacks, _ = new_group(seed=3, config=config)
    world.run_for(300.0)
    world.crash("p00")
    crashed_at = world.now
    stacks["p01"].gbcast.gbcast_payload("m1", ABCAST_CLASS)
    stacks["p02"].gbcast.gbcast_payload("m2", ABCAST_CLASS)
    survivors = [stacks["p01"], stacks["p02"]]
    world.run_for(100.0)
    assert world.metrics.counters.get("gbcast.closes_deferred") == 2
    assert world.metrics.counters.get("gbcast.endstages") == 0
    assert run_until(world, lambda: all(delivered(s) for s in survivors), step=1.0)
    elapsed = world.now - crashed_at
    # One timeout, one heartbeat period of detection granularity, two
    # consensus rounds on ~2 ms links.
    assert elapsed <= config.suspicion_timeout + 50.0
    assert run_until(world, lambda: all(len(delivered(s)) == 2 for s in survivors))
    assert delivered(survivors[0]) == delivered(survivors[1])
    assert {pid for pid, _reason in endstage_reasons(world)} == {"p01"}


def test_stuck_non_closer_closes_on_the_ack_timeout_alone():
    # Only p01 misses an ack (p02's, after traffic stopped): nobody else
    # has anything to close, so deferring to p00 would add a second
    # fast-path timeout for nothing.
    world, stacks, _ = new_group(seed=7)
    world.run_for(50.0)
    ports = stacks["p01"].process._ports
    on_ack = ports[ACK_PORT]
    ports[ACK_PORT] = lambda src, acks: src == "p02" or on_ack(src, acks)
    sent_at = world.now
    stacks["p02"].gbcast.gbcast_payload("m", RBCAST_CLASS)
    assert run_until(world, lambda: all(delivered(s) for s in stacks.values()), step=5.0)
    timeout = stacks["p01"].gbcast.fast_path_timeout
    # The watchdog ticks every half timeout: (1, 1.5] timeouts, never 2.
    assert timeout <= world.now - sent_at <= 1.5 * timeout + 25.0
    assert endstage_reasons(world) == [("p01", "timeout")]
    assert world.metrics.counters.get("gbcast.closes_deferred") == 0
    assert [path for _m, path in stacks["p01"].gbcast.delivered_log] == ["closure"]
    assert [path for _m, path in stacks["p00"].gbcast.delivered_log] == ["fast"]


def test_divergent_suspicions_order_two_endstages_first_wins():
    # p01 wrongly suspects p00, so both consider themselves the closer:
    # both ENDSTAGEs are ordered, the first a-delivered closes the
    # stage, the other is void — exactly what all n did before.
    config = StackConfig(monitoring=NO_EXCLUSION)
    world, stacks, _ = new_group(seed=9, config=config)
    world.run_for(50.0)
    # (A stand-in for the monitor: the real one would hear p00 and trust
    # it again within a heartbeat.)
    stacks["p01"].gbcast.monitor = SimpleNamespace(suspects={"p00"})
    stacks["p02"].gbcast.gbcast_payload("a", ABCAST_CLASS)
    stacks["p02"].gbcast.gbcast_payload("b", ABCAST_CLASS)
    assert run_until(world, lambda: all(len(delivered(s)) == 2 for s in stacks.values()))
    world.run_for(200.0)
    stage_zero = [
        (r.pid, r.details["stage"])
        for r in world.trace.select(component="gbcast", event="endstage")
        if r.details["stage"] == 0
    ]
    assert sorted(stage_zero) == [("p00", 0), ("p01", 0)]
    # (p01 also closes stage 1: its suspect blocks "b"'s fast path.)
    assert len({s.gbcast.stage for s in stacks.values()}) == 1
    assert_clean(stacks)


def test_process_outside_its_own_view_never_closes():
    world, stacks, _ = new_group(seed=13)
    world.run_for(50.0)
    outsider = stacks["p00"]
    outsider.membership.view = View(1, ("p01", "p02"))
    gb = outsider.gbcast
    stacks["p01"].gbcast.gbcast_payload("m", RBCAST_CLASS)
    assert run_until(world, lambda: gb.undelivered_count() == 1)
    for reason in ("conflict", "suspect", "nudge", "timeout"):
        gb._frozen = False
        gb._close_stage(reason)
    world.run_for(2 * gb.fast_path_timeout)
    assert [pid for pid, _reason in endstage_reasons(world)].count("p00") == 0
    assert world.metrics.counters.get("gbcast.closes_deferred") == 0
