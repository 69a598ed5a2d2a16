"""Tests for the Isis stack (Fig. 1): VS + coupled membership + sequencer."""

from repro.net.topology import LinkModel
from repro.sim.world import World, add_joiner, build_group
from repro.traditional.isis import IsisStack

from tests.conftest import run_until


def isis_group(count=3, seed=1, **options):
    world = World(seed=seed, default_link=LinkModel(1.0, 1.0))
    stacks = build_group(world, count, IsisStack, **options)
    world.start()
    return world, stacks


def logs(stacks):
    return {pid: s.delivered_payloads() for pid, s in stacks.items()}


def test_failure_free_total_order():
    world, stacks = isis_group()
    for i in range(6):
        stacks["p00"].abcast_payload(f"a{i}")
        stacks["p01"].abcast_payload(f"b{i}")
    assert run_until(
        world, lambda: all(len(v) == 12 for v in logs(stacks).values()), timeout=20_000
    )
    orders = list(logs(stacks).values())
    assert all(order == orders[0] for order in orders)


def test_sequencer_crash_blocks_until_view_change():
    world, stacks = isis_group(seed=2, exclusion_timeout=300.0)
    world.run_for(100.0)
    world.crash("p00")  # p00 is the sequencer (view head)
    stacks["p01"].abcast_payload("stalled")
    # Until the membership excludes p00, nothing can be ordered.
    world.run_for(150.0)
    assert logs(stacks)["p01"] == []
    survivors = ("p01", "p02")
    assert run_until(
        world, lambda: all(logs(stacks)[p] == ["stalled"] for p in survivors), timeout=30_000
    )
    # View changed and the new sequencer is p01.
    assert stacks["p01"].view().members == ("p01", "p02")
    assert stacks["p01"].abcast.is_sequencer


def test_view_synchrony_messages_delivered_in_sending_view():
    world, stacks = isis_group(seed=3)
    got = {pid: [] for pid in stacks}
    for pid, stack in stacks.items():
        stack.vs.register("app", lambda o, p, m, pid=pid: got[pid].append(p))
    stacks["p00"].vs.bcast("app", "in-view-0")
    assert run_until(world, lambda: all(v == ["in-view-0"] for v in got.values()))
    # All deliveries happened in view 0.
    assert all(s.view().id == 0 for s in stacks.values())


def test_senders_block_during_view_change():
    world, stacks = isis_group(seed=4, exclusion_timeout=200.0)
    world.run_for(50.0)
    world.crash("p02")
    assert run_until(world, lambda: stacks["p00"].view().id == 1, timeout=20_000)
    assert world.metrics.counters.get("vs.blocks") >= 2
    assert sum(world.metrics.latency.samples("vs.blocked")) > 0


def test_false_suspicion_kills_correct_process():
    # Section 4.3: in traditional stacks a wrong suspicion costs an
    # exclusion; the excluded (correct!) process kills itself.
    world, stacks = isis_group(seed=5, exclusion_timeout=150.0)
    world.run_for(100.0)
    # Cut heartbeats from p02 to the others without crashing p02.
    world.transport.set_link("p02", "p00", LinkModel(1.0, 1.0, drop_prob=1.0))
    world.transport.set_link("p02", "p01", LinkModel(1.0, 1.0, drop_prob=1.0))
    assert run_until(
        world,
        lambda: stacks["p00"].view() is not None
        and "p02" not in stacks["p00"].view(),
        timeout=20_000,
    )
    assert run_until(world, lambda: world.processes["p02"].crashed, timeout=20_000)
    assert world.metrics.counters.get("tgm.self_kills") == 1


def test_join_with_state_transfer():
    world, stacks = isis_group(seed=6)
    for pid, stack in stacks.items():
        stack.gm.set_state_handlers(lambda pid=pid: f"state-of-{pid}", lambda s: None)
    world.run_for(100.0)
    joiner = add_joiner(world, stacks)
    installed = []
    joiner.gm.set_state_handlers(lambda: None, installed.append)
    joiner.gm.request_join("p01")
    assert run_until(
        world,
        lambda: joiner.view() is not None and "p03" in stacks["p00"].view(),
        timeout=20_000,
    )
    assert run_until(world, lambda: bool(installed), timeout=20_000)
    assert installed == ["state-of-p00"]
    # Joiner can broadcast; everyone delivers.
    joiner.abcast_payload("hi-from-joiner")
    assert run_until(
        world,
        lambda: all("hi-from-joiner" in s.delivered_payloads() for s in stacks.values()),
        timeout=20_000,
    )


def test_ordering_solved_in_three_places():
    # Section 4.1: the traditional stack solves ordering three times.
    assert len(IsisStack.ORDERING_SOLVERS) == 3
