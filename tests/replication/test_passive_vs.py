"""Tests for the traditional baseline: passive replication over Isis VS."""

from repro.net.topology import LinkModel
from repro.replication.client import spawn_client
from repro.replication.primary_backup_vs import attach_passive_vs_replicas
from repro.sim.world import World, build_group
from repro.traditional.isis import IsisStack

from tests.conftest import run_until


def apply_kv(state, command):
    key, value = command
    new_state = dict(state)
    new_state[key] = value
    return new_state, ("stored", key, value)


def vs_setup(count=3, seed=1, **options):
    world = World(seed=seed, default_link=LinkModel(1.0, 1.0))
    stacks = build_group(world, count, IsisStack, **options)
    replicas = attach_passive_vs_replicas(stacks, apply_kv, {})
    client = spawn_client(world, sorted(stacks), mode="primary", retry_timeout=400.0)
    world.start()
    return world, stacks, replicas, client


def test_primary_updates_backups_via_vs():
    world, stacks, replicas, client = vs_setup()
    results = []
    client.submit(("x", 1), callback=results.append)
    assert run_until(world, lambda: bool(results), timeout=20_000)
    assert run_until(
        world,
        lambda: all(r.state.get("x") == 1 for r in replicas.values()),
        timeout=20_000,
    )


def test_primary_crash_needs_exclusion_to_recover():
    world, stacks, replicas, client = vs_setup(seed=2, exclusion_timeout=400.0)
    world.run_for(100.0)
    world.crash("p00")
    crash_time = world.now
    results = []
    client.submit(("after", 9), callback=results.append)
    assert run_until(world, lambda: bool(results), timeout=60_000)
    # The service only resumed after the view change excluded p00 —
    # i.e. after the (large) exclusion timeout, unlike the GB version.
    assert world.now - crash_time >= 400.0
    assert stacks["p01"].view().members == ("p01", "p02")


def test_false_suspicion_kills_the_primary():
    # Section 4.3, traditional cost: the wrongly suspected primary is
    # excluded AND killed; the group pays a full view change.
    world, stacks, replicas, client = vs_setup(seed=3, exclusion_timeout=200.0)
    world.run_for(100.0)
    for dst in ("p01", "p02"):
        world.transport.set_link("p00", dst, LinkModel(1.0, 1.0, drop_prob=1.0))
    assert run_until(world, lambda: world.processes["p00"].crashed, timeout=30_000)
    assert world.metrics.counters.get("tgm.self_kills") == 1
    # Service continues under the new primary.
    results = []
    client.submit(("y", 2), callback=results.append)
    assert run_until(world, lambda: bool(results), timeout=30_000)
    assert replicas["p01"].state.get("y") == 2


def test_no_stale_updates_thanks_to_sending_view_delivery():
    world, stacks, replicas, client = vs_setup(seed=4)
    for i in range(5):
        client.submit(("k", i))
    assert run_until(world, lambda: len(client.completed) == 5, timeout=40_000)
    assert world.metrics.counters.get("passive.stale_updates") == 0
    assert all(r.state.get("k") == 4 for r in replicas.values())
