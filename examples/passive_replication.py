"""Passive replication with generic broadcast — the Fig. 8 scenario.

Run with:  python examples/passive_replication.py

A primary-backup key-value service over the update/primary-change
conflict relation (Section 3.2.3).  We crash the primary mid-run: the
backups suspect it on a SMALL timeout and g-broadcast primary-change,
which merely rotates the server list [s1;s2;s3] -> [s2;s3;s1] — the old
primary is NOT excluded from the group (exclusion would need the
monitoring component's much larger timeout).  The client times out,
learns the new primary, re-issues its request, and the service answers.
"""

from repro import PASSIVE_REPLICATION, World
from repro.core.new_stack import StackConfig, build_new_group
from repro.monitoring.component import MonitoringPolicy
from repro.replication.client import spawn_client
from repro.replication.primary_backup import attach_passive_replicas


def apply_kv(state, command):
    key, value = command
    new_state = dict(state)
    new_state[key] = value
    return new_state, ("stored", key, value)


def main() -> None:
    config = StackConfig(
        suspicion_timeout=80.0,
        monitoring=MonitoringPolicy(exclusion_timeout=60_000.0),  # huge: no exclusions
    )
    world = World(seed=5)
    stacks = build_new_group(world, 3, conflict=PASSIVE_REPLICATION, config=config)
    replicas = attach_passive_replicas(stacks, apply_kv, {})
    client = spawn_client(world, sorted(stacks), mode="primary", retry_timeout=400.0)
    world.start()

    results = []
    client.submit(("colour", "blue"), callback=results.append, label="before")
    world.run_for(2_000.0)
    print("before crash:", results)
    print("  server lists:", {pid: r.server_list for pid, r in replicas.items()})

    print("\n-- crashing the primary p00 --")
    world.crash("p00")
    client.submit(("colour", "green"), callback=results.append, label="after")
    world.run_for(5_000.0)

    print("after crash :", results)
    survivors = {pid: r for pid, r in replicas.items() if pid != "p00"}
    print("  server lists:", {pid: r.server_list for pid, r in survivors.items()})
    print("  epochs      :", {pid: r.epoch for pid, r in survivors.items()})
    print("  states      :", {pid: r.state for pid, r in survivors.items()})
    view = stacks["p01"].membership.view
    print(f"  membership view is still {view} — p00 was demoted, not excluded")
    print(f"  client retries: {world.metrics.counters.get('client.retries')}")
    print(f"  consensus ran {world.metrics.counters.get('consensus.proposals')} times "
          f"(only for the conflicting primary-change)")
    assert len(results) == 2
    assert all(r.state.get("colour") == "green" for r in survivors.values())


if __name__ == "__main__":
    main()
