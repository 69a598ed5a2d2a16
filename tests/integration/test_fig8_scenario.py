"""Integration: the exact Fig. 8 scenario, both outcomes.

Three replicas s1 s2 s3; at (approximately) the same time t the primary
s1 g-broadcasts an update for a client request, and s2 — suspecting s1 —
g-broadcasts primary-change(s1).  The conflict relation guarantees only
two outcomes: the update is delivered everywhere before the change
(request took effect), or the change is delivered first everywhere and
the update is ignored as stale (the client retries).  We sweep how far
the change leads the update to exhibit each outcome and check both
satisfy the paper's guarantees.
"""

import itertools

from repro.gbcast.conflict import PASSIVE_REPLICATION, PRIMARY_CHANGE, UPDATE
from repro.replication.primary_backup import attach_passive_replicas

from tests.conftest import new_group, run_until


def apply_kv(state, command):
    key, value = command
    new_state = dict(state)
    new_state[key] = value
    return new_state, ("stored", key, value)


def fig8_race(seed, lead=0.0):
    """Run the race, the primary-change ``lead`` ms ahead of the update;
    returns (outcome, replicas, world)."""
    world, stacks, _ = new_group(count=3, seed=seed, conflict=PASSIVE_REPLICATION)
    replicas = attach_passive_replicas(stacks, apply_kv, {})
    world.start()
    world.run_for(50.0)
    # t: s2 suspects s1; s1 processes a request and updates.
    stacks["p01"].gbcast.gbcast_payload(("primary_change", "p00"), PRIMARY_CHANGE)
    world.run_for(lead)
    stacks["p00"].gbcast.gbcast_payload(
        ("update", 0, "client", 0, {"req": "done"}, ("stored", "req", "done")), UPDATE
    )
    assert run_until(
        world,
        lambda: all(r.epoch == 1 for r in replicas.values()),
        timeout=30_000,
    )
    run_until(
        world,
        lambda: all(
            len([e for e, _p in s.gbcast.delivered_log if not e.msg_class.startswith("_")]) == 2
            for s in stacks.values()
        ),
        timeout=30_000,
    )
    applied = {pid: r.state.get("req") for pid, r in replicas.items()}
    values = set(applied.values())
    assert len(values) == 1, f"replicas diverged: {applied}"
    outcome = "update-first" if values.pop() == "done" else "change-first"
    return outcome, replicas, world


def test_outcomes_are_always_consistent():
    # Fired in the same instant the update always wins: the primary is
    # the round-0 coordinator and proposes its own value before reading
    # any estimate.  "Approximately the same time" is therefore swept —
    # from about one link delay of lead on, the change wins.
    outcomes = set()
    for lead, seed in itertools.product((0.0, 2.0, 2.5, 3.0, 4.0), range(5)):
        outcome, replicas, world = fig8_race(seed, lead)
        outcomes.add(outcome)
        # In both cases all servers rotated to [s2; s3; s1].
        lists = {tuple(r.server_list) for r in replicas.values()}
        assert lists == {("p01", "p02", "p00")}
        # The old primary stays in the membership (no exclusion).
        assert all(
            "p00" in s for s in lists
        )
    # Over the sweep both Fig. 8 outcomes occur.
    assert outcomes == {"update-first", "change-first"}, outcomes


def test_simultaneous_race_is_consistent():
    # Update and change in the same instant: whatever the outcome, every
    # replica agrees on it and on the rotated server list — the Fig. 8
    # guarantee is outcome-agnostic.
    for seed in range(12):
        _outcome, replicas, world = fig8_race(seed)
        lists = {tuple(r.server_list) for r in replicas.values()}
        assert lists == {("p01", "p02", "p00")}


def test_client_retry_after_change_first_outcome():
    # Whatever the outcome, a client that re-issues its request to the
    # new primary eventually gets an answer.
    from repro.replication.client import spawn_client

    world, stacks, _ = new_group(count=3, seed=101, conflict=PASSIVE_REPLICATION)
    replicas = attach_passive_replicas(stacks, apply_kv, {})
    client = spawn_client(world, sorted(stacks), mode="primary", retry_timeout=300.0)
    world.start()
    world.run_for(50.0)
    # Force a primary change just as the client submits.
    stacks["p01"].gbcast.gbcast_payload(("primary_change", "p00"), PRIMARY_CHANGE)
    results = []
    client.submit(("k", 7), callback=results.append)
    assert run_until(world, lambda: bool(results), timeout=60_000)
    assert results[0] == ("stored", "k", 7)
    assert run_until(
        world,
        lambda: all(r.state.get("k") == 7 for r in replicas.values()),
        timeout=30_000,
    )
