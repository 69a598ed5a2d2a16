"""Property-based tests for consensus and atomic broadcast invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.topology import LinkModel
from repro.sim.world import World
from repro.core.new_stack import build_new_group
from repro.broadcast.rbcast import ReliableBroadcast
from repro.consensus.chandra_toueg import ChandraTouegConsensus
from repro.fd.heartbeat import HeartbeatFailureDetector
from repro.net.reliable import ReliableChannel

from tests.conftest import run_until


def build_consensus_world(n, seed, jitter):
    world = World(seed=seed, default_link=LinkModel(1.0, jitter))
    pids = world.spawn(n)
    nodes, decisions = {}, {pid: {} for pid in pids}
    for pid in pids:
        proc = world.process(pid)
        channel = ReliableChannel(proc)
        fd = HeartbeatFailureDetector(proc, lambda: list(pids))
        rb = ReliableBroadcast(proc, channel, lambda: list(pids))
        cons = ChandraTouegConsensus(proc, channel, rb, fd.monitor(list(pids), 50.0))
        cons.on_decide(lambda k, v, pid=pid: decisions[pid].__setitem__(k, v))
        nodes[pid] = cons
    return world, pids, nodes, decisions


@given(
    st.integers(3, 5),
    st.integers(0, 10_000),
    st.floats(0.0, 5.0),
    st.data(),
)
@settings(max_examples=22, deadline=None)
def test_consensus_agreement_validity_termination(n, seed, jitter, data):
    world, pids, nodes, decisions = build_consensus_world(n, seed, jitter)
    # Crash a (possibly empty) strict minority.
    crash_count = data.draw(st.integers(0, (n - 1) // 2))
    crashed = pids[n - crash_count :] if crash_count else []
    world.start()
    for pid in crashed:
        world.crash(pid)
    values = {pid: f"v:{pid}" for pid in pids}
    for pid in pids:
        if pid not in crashed:
            nodes[pid].propose("k", values[pid], pids)
    alive = [p for p in pids if p not in crashed]
    assert run_until(world, lambda: all("k" in decisions[p] for p in alive), timeout=60_000)
    decided = {decisions[p]["k"] for p in alive}
    assert len(decided) == 1                      # agreement
    assert decided.pop() in set(values.values())  # validity


@given(st.integers(0, 10_000), st.integers(1, 8), st.data())
@settings(max_examples=10, deadline=None)
def test_abcast_total_order_is_a_shared_sequence(seed, messages, data):
    world = World(seed=seed)
    stacks = build_new_group(world, 3)
    world.start()
    pids = sorted(stacks)
    for i in range(messages):
        sender = data.draw(st.sampled_from(pids))
        stacks[sender].abcast.abcast(world.process(sender).msg_ids.message(("p", i)))
    def done():
        logs = [
            [m.payload for m in stacks[p].abcast.delivered_log if m.msg_class == "default"]
            for p in pids
        ]
        return all(len(log) == messages for log in logs)
    assert run_until(world, done, timeout=60_000)
    logs = [
        [m.payload for m in stacks[p].abcast.delivered_log if m.msg_class == "default"]
        for p in pids
    ]
    assert logs[0] == logs[1] == logs[2]


@given(st.integers(0, 10_000))
@settings(max_examples=8, deadline=None)
def test_abcast_crashed_process_log_is_a_prefix(seed):
    world = World(seed=seed)
    stacks = build_new_group(world, 3)
    world.start()
    for i in range(6):
        stacks["p00"].abcast.abcast(world.process("p00").msg_ids.message(("m", i)))
    world.run_for(40.0 + (seed % 100))
    world.crash("p02")
    survivors = ("p00", "p01")
    assert run_until(
        world,
        lambda: all(
            len([m for m in stacks[p].abcast.delivered_log if m.msg_class == "default"]) == 6
            for p in survivors
        ),
        timeout=60_000,
    )
    crashed_log = [m.payload for m in stacks["p02"].abcast.delivered_log if m.msg_class == "default"]
    survivor_log = [m.payload for m in stacks["p00"].abcast.delivered_log if m.msg_class == "default"]
    assert survivor_log[: len(crashed_log)] == crashed_log
