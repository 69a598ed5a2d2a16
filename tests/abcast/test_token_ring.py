"""Direct unit tests for the token-ring atomic broadcast."""

from repro.abcast.token_ring import TokenRingAtomicBroadcast
from repro.membership.view import View
from repro.net.reliable import ReliableChannel
from repro.net.topology import LinkModel
from repro.sim.world import World

from tests.conftest import run_until


class ViewHolder:
    def __init__(self, members):
        self.view = View.initial(members)

    def get(self):
        return self.view


def ring_world(count=3, seed=1, max_orders=10):
    world = World(seed=seed, default_link=LinkModel(1.0, 1.0))
    pids = world.spawn(count)
    holder = ViewHolder(pids)
    nodes = {}
    for pid in pids:
        proc = world.process(pid)
        channel = ReliableChannel(proc)
        nodes[pid] = TokenRingAtomicBroadcast(
            proc, channel, holder.get, max_orders_per_token=max_orders
        )
    world.start()
    return world, pids, nodes, holder


def logs(nodes):
    return {pid: [m.payload for m in n.delivered_log] for pid, n in nodes.items()}


def test_token_circulates_and_orders():
    world, pids, nodes, holder = ring_world()
    for pid in pids:
        nodes[pid].abcast(world.process(pid).msg_ids.message(("from", pid)))
    assert run_until(
        world, lambda: all(len(v) == 3 for v in logs(nodes).values()), timeout=10_000
    )
    orders = list(logs(nodes).values())
    assert all(o == orders[0] for o in orders)
    assert world.metrics.counters.get("abcast.token_passes") > 0


def test_single_member_ring_orders_without_token_passes():
    world, pids, nodes, holder = ring_world(count=1)
    for i in range(5):
        nodes["p00"].abcast(world.process("p00").msg_ids.message(i))
    assert run_until(world, lambda: len(logs(nodes)["p00"]) == 5, timeout=10_000)
    assert world.metrics.counters.get("abcast.token_passes") == 0


def test_flow_control_budget_limits_orders_per_visit():
    world, pids, nodes, holder = ring_world(seed=2, max_orders=2)
    for i in range(8):
        nodes["p00"].abcast(world.process("p00").msg_ids.message(("b", i)))
    assert run_until(
        world, lambda: all(len(v) == 8 for v in logs(nodes).values()), timeout=30_000
    )
    # 8 messages with budget 2 need >= 4 token visits at p00, so more
    # passes than with the default budget.
    assert world.metrics.counters.get("abcast.token_passes") >= 8


def test_stale_generation_token_discarded():
    world, pids, nodes, holder = ring_world(seed=3)
    world.run_for(50.0)
    nodes["p01"].generation = 5  # as if a reformation happened
    nodes["p00"].channel.send("p01", "tok", (0, 99))  # stale token
    world.run_for(50.0)
    assert len(world.trace.select(pid="p01", event="stale_token")) >= 1


def test_freeze_blocks_ordering_until_recovery():
    world, pids, nodes, holder = ring_world(seed=4)
    world.run_for(30.0)
    for node in nodes.values():
        node.freeze()
    nodes["p00"].abcast(world.process("p00").msg_ids.message("frozen-out"))
    world.run_for(300.0)
    assert all(v == [] for v in logs(nodes).values())
    merged = {}
    top = -1
    for node in nodes.values():
        ordered, mseq = node.state_summary()
        merged.update(ordered)
        top = max(top, mseq)
    for node in nodes.values():
        node.install_recovery(merged, holder.get(), top + 1, generation=1)
    assert run_until(
        world, lambda: all(v == ["frozen-out"] for v in logs(nodes).values()), timeout=10_000
    )
    assert all(n.generation == 1 for n in nodes.values())


def test_recovery_fills_holes_with_noops():
    world, pids, nodes, holder = ring_world(seed=5)
    msg = world.process("p00").msg_ids.message("hole-jumper")
    # seq 1 exists, seq 0 never will: delivery is stuck.
    for pid in pids:
        nodes["p00"].channel.send(pid, "tok.order", (1, msg))
    world.run_for(100.0)
    assert all(v == [] for v in logs(nodes).values())
    for node in nodes.values():
        node.freeze()
        ordered, mseq = node.state_summary()
    for node in nodes.values():
        node.install_recovery({1: msg}, holder.get(), 2, generation=1)
    assert run_until(
        world, lambda: all(v == ["hole-jumper"] for v in logs(nodes).values()), timeout=10_000
    )


def test_membership_snapshot_roundtrip():
    world, pids, nodes, holder = ring_world(seed=6)
    for i in range(4):
        nodes["p01"].abcast(world.process("p01").msg_ids.message(("s", i)))
    assert run_until(
        world, lambda: all(len(v) == 4 for v in logs(nodes).values()), timeout=10_000
    )
    snapshot = nodes["p00"].membership_snapshot()
    assert snapshot["next_deliver"] == 4
    assert len(snapshot["delivered"]) == 4
    # A fresh joiner installing the snapshot does not re-deliver history.
    (joiner_pid,) = world.spawn(1, start_index=3)
    proc = world.process(joiner_pid)
    channel = ReliableChannel(proc)
    joiner = TokenRingAtomicBroadcast(proc, channel, holder.get, max_orders_per_token=10)
    joiner.install_membership_snapshot(snapshot)
    world.run_for(100.0)
    assert joiner.delivered_log == []
    assert joiner._next_deliver == 4
