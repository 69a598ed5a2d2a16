"""Rolling restart: cycle every member through crash + recovery.

Run with:  python examples/rolling_restart.py

Demonstrates the crash-recovery subsystem: each process in turn is
crashed, excluded by the monitoring component, restarted as a fresh
incarnation (``World.recover``), and rejoined through the abcast-based
membership with its replicated state restored by state transfer.  A
replicated counter keeps executing throughout — the group never loses
quorum, and at the end every process (including every recovered one)
holds the identical state.
"""

from repro import (
    GroupCommunication,
    MonitoringPolicy,
    StackConfig,
    World,
    build_new_group,
    enable_recovery,
)
from repro.replication.state_machine import ActiveReplica, attach_active_replicas
from repro.workload.generators import FaultPlan


def apply_fn(state, command):
    return state + command, state + command


def main() -> None:
    config = StackConfig(monitoring=MonitoringPolicy(exclusion_timeout=300.0))
    world = World(seed=42)
    stacks = build_new_group(world, 3, config=config)
    apis = {pid: GroupCommunication(stack) for pid, stack in stacks.items()}
    replicas = attach_active_replicas(stacks, apply_fn, 0)

    def rebuild(pid, stack):
        # The old incarnation's facade and replica are dead objects:
        # re-attach fresh ones to the rebuilt stack.
        apis[pid] = GroupCommunication(stack)
        replicas[pid] = ActiveReplica(stack, apply_fn, 0)

    enable_recovery(world, stacks, config=config, on_rebuild=rebuild)
    world.start()

    # One crash → recover cycle per member, never overlapping.
    plan = FaultPlan.rolling_restart(
        list(stacks), start=400.0, downtime=600.0, gap=1_500.0
    )
    plan.apply(world)

    # Steady replicated-command traffic from whoever is up.
    commands = 12
    for i in range(commands):
        t = 100.0 + i * 450.0

        def issue(i=i):
            senders = [p for p in sorted(stacks) if not world.processes[p].crashed]
            apis[senders[i % len(senders)]].abcast(("cmd", "client", i, i + 1))

        world.scheduler.at(t, issue)

    world.run_until(
        lambda: all(len(r.command_log) == commands for r in replicas.values()),
        timeout=60_000,
    )

    print("== after the rolling restart ==")
    for pid in sorted(stacks):
        process = world.processes[pid]
        print(
            f"  {pid}: incarnation={process.incarnation} "
            f"state={replicas[pid].state} view={stacks[pid].membership.view}"
        )

    states = {r.state for r in replicas.values()}
    assert len(states) == 1, "replicas diverged?!"
    assert all(world.processes[pid].incarnation == 1 for pid in stacks)

    counters = world.metrics.counters
    print("\n== recovery internals ==")
    print(f"  recoveries                : {counters.get('world.recoveries')}")
    print(f"  stale datagrams fenced    : {counters.get('net.stale_incarnation_dropped')}")
    print(f"  stale connections dropped : {counters.get('rc.stale_connection_dropped')}")
    print(f"  peer reincarnations seen  : {counters.get('rc.peer_reincarnations')}")
    print(f"  snapshots installed       : {counters.get('replica.snapshots_installed')}")
    print(f"  views installed           : {counters.get('gm.views_installed')}")
    print(f"\nfinal view everywhere: {stacks['p00'].membership.view}")


if __name__ == "__main__":
    main()
