"""Tests for the view synchrony layer: the flush protocol on the bare
layer, and the sending view delivery Isis and Phoenix share on both
stacks."""

import pytest

from repro.membership.view import View
from repro.net.reliable import ReliableChannel
from repro.net.topology import LinkModel
from repro.sim.world import World, build_group
from repro.traditional.isis import IsisStack
from repro.traditional.phoenix import PhoenixStack
from repro.traditional.view_synchrony import FlushViewSynchrony

from tests.conftest import run_until

#: The two ways to decide the next view: a coordinator's flush (Isis) and
#: consensus (Phoenix).
KINDS = {"isis": IsisStack, "phoenix": PhoenixStack}


def vs_world(count=3, seed=1, joiner=False):
    world = World(seed=seed, default_link=LinkModel(1.0, 1.0))
    pids = world.spawn(count)
    nodes = {}
    got = {pid: [] for pid in pids}
    for pid in pids:
        proc = world.process(pid)
        channel = ReliableChannel(proc)
        vs = FlushViewSynchrony(proc, channel, View.initial(pids))
        vs.register("app", lambda o, p, m, pid=pid: got[pid].append(p))
        nodes[pid] = vs
    world.start()
    return world, pids, nodes, got


def stack_world(kind, seed):
    """A started three-member group of ``kind``; its view-synchronous
    layers record what they deliver under the ``app`` tag.  Crashing
    ``p02`` makes the group decide view 1 = (p00, p01)."""
    world = World(seed=seed, default_link=LinkModel(1.0, 1.0))
    stacks = build_group(world, 3, KINDS[kind], exclusion_timeout=200.0)
    nodes = {pid: s.vs if kind == "isis" else s.membership for pid, s in stacks.items()}
    got = {pid: [] for pid in stacks}
    for pid, vs in nodes.items():
        vs.register("app", lambda o, p, m, pid=pid: got[pid].append(p))
    world.start()
    return world, nodes, got


def test_broadcast_delivered_to_view_members():
    world, pids, nodes, got = vs_world()
    nodes["p00"].bcast("app", "hello")
    assert run_until(world, lambda: all(v == ["hello"] for v in got.values()))


def test_flush_installs_view_everywhere_with_message_completion():
    world, pids, nodes, got = vs_world(seed=2)
    # p02 misses a message (slow link); the flush must complete it
    # before the new view (sending view delivery).
    world.transport.set_link("p00", "p02", LinkModel(10_000.0, 0.0))
    nodes["p00"].bcast("app", "fragile")
    assert run_until(world, lambda: got["p01"] == ["fragile"], timeout=10_000)
    assert got["p02"] == []
    world.transport.set_link("p00", "p02", LinkModel(1.0, 1.0))
    nodes["p00"].initiate_view_change(["p00", "p01", "p02"])  # no-op change? same set
    # Same membership set is rejected by the GM layer normally; drive a
    # real change instead: drop p01.
    nodes["p00"].initiate_view_change(["p00", "p02"])
    assert run_until(
        world,
        lambda: nodes["p00"].view.id >= 1 and nodes["p02"].view.id >= 1,
        timeout=10_000,
    )
    # p02 received 'fragile' through the flush union, in the OLD view.
    assert "fragile" in got["p02"]


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_senders_queue_while_blocked_and_resend_in_new_view(kind):
    world, nodes, got = stack_world(kind, seed=3)
    world.run_for(20.0)
    world.crash("p02")
    assert run_until(world, lambda: nodes["p01"].blocked, timeout=10_000, step=0.5)
    nodes["p01"].bcast("app", "queued")
    assert world.metrics.counters.get("vs.sends_blocked") == 1
    assert run_until(
        world,
        lambda: got["p00"] == ["queued"] and got["p01"] == ["queued"],
        timeout=10_000,
    )
    # Delivered in the new view (it was sent there — sending view delivery).
    assert nodes["p00"].view.id == 1


def test_excluded_member_notified():
    world, pids, nodes, got = vs_world(seed=4)
    excluded = []
    nodes["p02"].on_excluded(lambda: excluded.append(True))
    nodes["p00"].initiate_view_change(["p00", "p01"])
    assert run_until(world, lambda: bool(excluded), timeout=10_000)
    assert nodes["p00"].view.members == ("p00", "p01")


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_messages_from_future_views_are_buffered(kind):
    world, nodes, got = stack_world(kind, seed=5)
    # Manually inject a message stamped with view 1 before the change.
    mid = world.process("p01").msg_ids.next()
    nodes["p01"].channel.send("p00", nodes["p01"].msg_port, (mid, "p01", 1, "app", "early"))
    world.run_for(50.0)
    assert got["p00"] == []  # held back
    world.crash("p02")
    assert run_until(world, lambda: "early" in got["p00"], timeout=10_000)


def test_stale_view_messages_discarded():
    world, pids, nodes, got = vs_world(seed=6)
    nodes["p00"].initiate_view_change(["p00", "p01", "p02"][:2] + ["p02"])
    world.run_for(200.0)
    # A message stamped with view 0 arriving in view 1 is dropped.
    mid = world.process("p01").msg_ids.next()
    nodes["p01"].channel.send("p00", "vs.msg", (mid, "p01", 0, "app", "stale"))
    world.run_for(100.0)
    assert "stale" not in got["p00"]


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_blocked_interval_metrics(kind):
    world, nodes, got = stack_world(kind, seed=7)
    world.run_for(10.0)
    world.crash("p02")
    assert run_until(
        world, lambda: all(nodes[p].view.id == 1 for p in ("p00", "p01")), timeout=10_000
    )
    assert world.metrics.counters.get("vs.blocks") == 2
    assert sum(world.metrics.latency.samples("vs.blocked")) > 0
    assert world.metrics.latency.open_intervals("vs.blocked") == 0  # p02 crashed unblocked
