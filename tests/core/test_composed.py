"""The Appia/Cactus duality (paper conclusion): the same protocol code
under two composition styles must behave identically."""

from repro.core.composed import ComposedNewArchitecture
from repro.core.new_stack import build_new_group
from repro.gbcast.conflict import PASSIVE_REPLICATION
from repro.sim.world import World, build_group

from tests.conftest import run_until


def drive_direct(seed, script):
    world = World(seed=seed)
    stacks = build_new_group(world, 3)
    world.start()
    script(world, lambda pid, payload, cls: stacks[pid].gbcast.gbcast_payload(payload, cls))
    logs = lambda pid: [
        m.payload
        for m, _p in stacks[pid].gbcast.delivered_log
        if not m.msg_class.startswith("_")
    ]
    return world, logs, stacks


def drive_composed(seed, script):
    world = World(seed=seed)
    group = build_group(world, 3, ComposedNewArchitecture)
    world.start()
    script(world, lambda pid, payload, cls: group[pid].gbcast(payload, cls))
    return world, (lambda pid: group[pid].delivered_payloads()), group


def burst_script(world, send):
    for i in range(6):
        send("p00", ("a", i), "abcast")
        send("p01", ("r", i), "rbcast")


def test_same_code_same_behaviour_across_compositions():
    w1, logs1, _ = drive_direct(7, burst_script)
    assert run_until(w1, lambda: all(len(logs1(p)) == 12 for p in ("p00", "p01", "p02")))
    w2, logs2, _ = drive_composed(7, burst_script)
    assert run_until(w2, lambda: all(len(logs2(p)) == 12 for p in ("p00", "p01", "p02")))
    for pid in ("p00", "p01", "p02"):
        assert logs1(pid) == logs2(pid), f"{pid}: compositions diverged"
    # Identical runs all the way down to the wire.
    assert w1.metrics.counters.get("net.sent") == w2.metrics.counters.get("net.sent")


def test_composed_membership_operations_route_through_events():
    world = World(seed=8)
    group = build_group(world, 3, ComposedNewArchitecture)
    world.start()
    views = []
    group["p00"].app.on_new_view(lambda v: views.append(v.members))
    group["p01"].app.remove("p02")
    assert run_until(world, lambda: views == [("p00", "p01")], timeout=20_000)
    assert group["p00"].view().members == ("p00", "p01")
    assert group["p00"].app.views[0].id == 1


def test_composed_event_hops_are_counted():
    world = World(seed=9)
    group = build_group(world, 3, ComposedNewArchitecture)
    world.start()
    group["p00"].gbcast("hop", "abcast")
    assert run_until(
        world,
        lambda: all(g.delivered_payloads() == ["hop"] for g in group.values()),
        timeout=20_000,
    )
    # The routing difference is observable: the composed variant routes
    # application interactions as events.
    assert world.metrics.counters.get("ens.event_hops") > 0


def test_composed_supports_custom_relations():
    world = World(seed=10)
    group = build_group(world, 3, ComposedNewArchitecture, conflict=PASSIVE_REPLICATION)
    world.start()
    for i in range(5):
        group["p00"].gbcast(("u", i), "update")
    assert run_until(
        world,
        lambda: all(len(g.delivered_payloads()) == 5 for g in group.values()),
        timeout=20_000,
    )
    assert world.metrics.counters.get("consensus.proposals") == 0
