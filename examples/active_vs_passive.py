"""Active vs. passive replication on the new architecture (Section 3.2.2).

Run with:  python examples/active_vs_passive.py

The same key-value service replicated two ways over the same stack:

* **active** (state machine [33]): every request is atomically broadcast
  and executed by every replica — higher per-request ordering cost, but
  a replica crash is invisible to clients;
* **passive** (primary-backup over generic broadcast, Fig. 8): only the
  primary executes; updates ride the non-conflicting fast path — cheaper
  per request, but a primary crash costs a (small-timeout) primary
  change before service resumes.

The trade-off in numbers, from one deterministic run each.
"""

from repro import PASSIVE_REPLICATION, World
from repro.core.new_stack import StackConfig, build_new_group
from repro.monitoring.component import MonitoringPolicy
from repro.replication.client import spawn_client
from repro.replication.primary_backup import attach_passive_replicas
from repro.replication.state_machine import attach_active_replicas


def apply_kv(state, command):
    key, value = command
    new_state = dict(state)
    new_state[key] = value
    return new_state, ("stored", key, value)


def run_active():
    world = World(seed=21)
    stacks = build_new_group(world, 3)
    attach_active_replicas(stacks, apply_kv, {})
    client = spawn_client(world, sorted(stacks), mode="all")
    world.start()
    for i in range(10):
        client.submit(("k", i), label="active")
    world.run_until(lambda: len(client.completed) == 10, timeout=120_000)
    # Crash a replica mid-stream; the client should not notice.
    world.crash("p02")
    client.submit(("after-crash", 1), label="active_crash")
    world.run_until(lambda: len(client.completed) == 11, timeout=120_000)
    return world


def run_passive():
    world = World(seed=21)
    config = StackConfig(monitoring=MonitoringPolicy(exclusion_timeout=60_000.0))
    stacks = build_new_group(world, 3, conflict=PASSIVE_REPLICATION, config=config)
    attach_passive_replicas(stacks, apply_kv, {})
    client = spawn_client(world, sorted(stacks), mode="primary")
    world.start()
    for i in range(10):
        client.submit(("k", i), label="passive")
    world.run_until(lambda: len(client.completed) == 10, timeout=120_000)
    world.crash("p00")  # the primary!
    client.submit(("after-crash", 1), label="passive_crash")
    world.run_until(lambda: len(client.completed) == 11, timeout=120_000)
    return world


def main() -> None:
    active = run_active()
    passive = run_passive()
    print("active replication (state machine over abcast):")
    print(f"  request latency  : {active.metrics.latency.stats('request.active')}")
    print(f"  after crash      : {active.metrics.latency.stats('request.active_crash')}")
    print(f"  consensus runs   : {active.metrics.counters.get('consensus.proposals')}")
    print("\npassive replication (primary-backup over generic broadcast):")
    print(f"  request latency  : {passive.metrics.latency.stats('request.passive')}")
    print(f"  after PRIMARY crash: {passive.metrics.latency.stats('request.passive_crash')}")
    print(f"  consensus runs   : {passive.metrics.counters.get('consensus.proposals')}")
    print(
        "\nShape: active pays consensus on every request but masks crashes;\n"
        "passive rides the fast path (few/no consensus runs) but pays a\n"
        "primary change — still only a small-timeout suspicion, never an\n"
        "exclusion (Sections 3.2.2-3.2.3)."
    )


if __name__ == "__main__":
    main()
