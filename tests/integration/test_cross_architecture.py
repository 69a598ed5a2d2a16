"""Integration: the same workload over all six architectures.

Every stack must produce a single agreed total order for the same burst
of atomic broadcasts — the common functional denominator the paper's
comparison relies on — while exposing very different internals (counted
here, compared in ``benchmarks/bench_xarch_comparison.py``).
"""

import pytest

from repro.core.new_stack import NewArchitectureStack
from repro.net.topology import LinkModel
from repro.sim.world import World, build_group
from repro.traditional import EnsembleStack, IsisStack, PhoenixStack, RMPStack, TotemStack

from tests.conftest import run_until

STACKS = {
    "new-architecture": NewArchitectureStack,
    "isis": IsisStack,
    "phoenix": PhoenixStack,
    "rmp": RMPStack,
    "totem": TotemStack,
    "ensemble": EnsembleStack,
}


def runner(name, world, count):
    """Build and start a group; return its pids, ``send(pid, payload)``
    and ``log(pid)``.  Every traditional stack offers the one application
    surface; the new stack's application path is generic broadcast."""
    stacks = build_group(world, count, STACKS[name])
    world.start()
    if name == "new-architecture":
        return (
            list(stacks),
            lambda pid, payload: stacks[pid].gbcast.gbcast_payload(payload, "abcast"),
            lambda pid: [
                m.payload for m, _p in stacks[pid].gbcast.delivered_log if m.msg_class == "abcast"
            ],
        )
    return (
        list(stacks),
        lambda pid, payload: stacks[pid].abcast_payload(payload),
        lambda pid: stacks[pid].delivered_payloads(),
    )


@pytest.mark.parametrize("name", sorted(STACKS))
def test_same_workload_same_total_order(name):
    world = World(seed=21, default_link=LinkModel(1.0, 1.0))
    pids, send, log = runner(name, world, 3)
    for i in range(5):
        for pid in pids:
            send(pid, (pid, i))
    expected = 15
    assert run_until(
        world, lambda: all(len(log(pid)) == expected for pid in pids), timeout=60_000
    ), f"{name}: {[len(log(p)) for p in pids]}"
    orders = [log(pid) for pid in pids]
    assert all(o == orders[0] for o in orders), f"{name} diverged"
    payloads = orders[0]
    assert len(set(payloads)) == expected


@pytest.mark.parametrize("name", sorted(STACKS))
def test_deterministic_across_reruns(name):
    def one_run():
        world = World(seed=33, default_link=LinkModel(1.0, 1.0))
        pids, send, log = runner(name, world, 3)
        for i in range(3):
            send(pids[0], ("x", i))
        run_until(world, lambda: len(log(pids[0])) == 3, timeout=60_000)
        return log(pids[0]), world.metrics.counters.get("net.sent")

    first = one_run()
    second = one_run()
    assert first == second  # same seed, same world => identical run
