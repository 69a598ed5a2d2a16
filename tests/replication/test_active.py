"""Tests for active replication (state machine over abcast)."""

import pytest

from repro.core.api import GroupCommunication
from repro.core.new_stack import StackConfig, enable_recovery
from repro.gbcast.conflict import RBCAST_ABCAST, bank_relation
from repro.monitoring.component import MonitoringPolicy
from repro.replication.bank import attach_bank_replicas
from repro.replication.client import REPLY_PORT, REQUEST_PORT, spawn_client
from repro.replication.state_machine import ActiveReplica, attach_active_replicas

from tests.conftest import new_group, run_until


def apply_counter(state, command):
    """A tiny deterministic state machine: append-only log + counter."""
    op, value = command
    if op == "add":
        return state + value, state + value
    if op == "get":
        return state, state
    raise ValueError(op)


def active_setup(count=3, seed=1, clients=1):
    world, stacks, apis = new_group(count=count, seed=seed)
    replicas = attach_active_replicas(stacks, apply_counter, 0)
    cs = [spawn_client(world, list(stacks), mode="all") for _ in range(clients)]
    world.start()
    return world, stacks, replicas, cs


def test_single_request_executed_once_everywhere():
    world, stacks, replicas, (client,) = active_setup()
    results = []
    client.submit(("add", 5), callback=results.append)
    assert run_until(world, lambda: results == [5], timeout=20_000)
    world.run_for(1_000.0)
    # Each replica executed the command exactly once despite n broadcasts.
    assert all(r.state == 5 for r in replicas.values())
    assert all(r.command_log == [("add", 5)] for r in replicas.values())


def test_replicas_converge_under_concurrent_clients():
    world, stacks, replicas, clients = active_setup(seed=2, clients=3)
    for i, client in enumerate(clients):
        for j in range(4):
            client.submit(("add", 10 * i + j))
    total = sum(10 * i + j for i in range(3) for j in range(4))
    assert run_until(
        world,
        lambda: all(r.state == total for r in replicas.values()),
        timeout=60_000,
    )
    logs = [r.command_log for r in replicas.values()]
    assert all(log == logs[0] for log in logs)


def test_progress_with_minority_crash():
    # Section 3.2.2 + 3.1.1: active replication keeps serving while a
    # minority of replicas is down, without waiting for any exclusion.
    world, stacks, replicas, (client,) = active_setup(seed=3)
    world.run_for(100.0)
    world.crash("p02")
    results = []
    client.submit(("add", 7), callback=results.append)
    assert run_until(world, lambda: results == [7], timeout=30_000)
    assert replicas["p00"].state == 7
    assert replicas["p01"].state == 7


def test_client_gets_single_reply_per_request():
    world, stacks, replicas, (client,) = active_setup(seed=4)
    results = []
    client.submit(("add", 1), callback=results.append)
    client.submit(("add", 2), callback=results.append)
    assert run_until(world, lambda: len(client.completed) == 2, timeout=20_000)
    world.run_for(1_000.0)
    assert len(results) == 2  # n replicas replied, client deduplicated


def test_request_latency_recorded():
    world, stacks, replicas, (client,) = active_setup(seed=5)
    client.submit(("add", 3), label="active")
    assert run_until(world, lambda: len(client.completed) == 1, timeout=20_000)
    stats = world.metrics.latency.stats("request.active")
    assert stats.count == 1 and stats.mean > 0


# ----------------------------------------------------------------------
# One reply rule for every active service: the counter and the bank
# ----------------------------------------------------------------------
#: service -> (conflict relation, attach(stacks), a command, its effect on
#: a replica's state, read as an int)
SERVICES = {
    "counter": (
        RBCAST_ABCAST,
        lambda stacks: attach_active_replicas(stacks, apply_counter, 0),
        ("add", 5),
        lambda state: state,
    ),
    "bank": (
        bank_relation(),
        lambda stacks: attach_bank_replicas(stacks, initial_balance=0),
        ("deposit", 5),
        lambda state: state.balance,
    ),
}


def service_setup(service, mode, seed=6):
    conflict, attach, command, read = SERVICES[service]
    world, stacks, _ = new_group(seed=seed, conflict=conflict)
    replicas = attach(stacks)
    client = spawn_client(world, sorted(stacks), mode=mode)
    return world, replicas, client, command, read


@pytest.mark.parametrize("mode", ["all", "primary"])
@pytest.mark.parametrize("service", sorted(SERVICES))
def test_each_replica_that_took_a_request_replies_once(service, mode):
    world, replicas, client, command, read = service_setup(service, mode)
    client.submit(command)
    client.submit(command)
    assert run_until(world, lambda: len(client.completed) == 2, timeout=20_000)
    world.run_for(1_000.0)
    # Executed exactly once everywhere, whoever broadcast it.
    assert all(read(r.state) == 10 for r in replicas.values())
    assert all(r.command_log == [command, command] for r in replicas.values())
    assert world.metrics.counters.get("replica.executed") == 2 * len(replicas)
    # One reply per request from every replica that took it: all of
    # them for a client sending to all, the one it sent to otherwise.
    takers = len(replicas) if mode == "all" else 1
    assert world.metrics.counters.get(f"rc.sent.port.{REPLY_PORT}") == 2 * takers


@pytest.mark.parametrize("service", sorted(SERVICES))
def test_retry_after_execution_is_answered_not_executed_again(service):
    world, replicas, client, command, read = service_setup(service, "primary")
    client.submit(command)
    assert run_until(world, lambda: len(client.completed) == 1, timeout=20_000)
    world.run_for(1_000.0)
    # The client re-sends request 0, as a retry whose reply was lost would.
    client.channel.send("p00", REQUEST_PORT, (client.pid, 0, command))
    world.run_for(1_000.0)
    assert world.metrics.counters.get(f"rc.sent.port.{REPLY_PORT}") == 2
    assert world.metrics.counters.get("replica.executed") == len(replicas)
    assert all(read(r.state) == 5 for r in replicas.values())


# ----------------------------------------------------------------------
# Replica state is never shared by reference
# ----------------------------------------------------------------------
def append_in_place(state, command):
    """Mutates the state it is given, as ``apply_bank`` does."""
    state.append(command)
    return state, len(state)


def test_replicas_and_a_readmitted_joiner_keep_independent_states():
    config = StackConfig(monitoring=MonitoringPolicy(exclusion_timeout=5_000.0))
    world, stacks, apis = new_group(seed=8, config=config)
    initial = []
    replicas = attach_active_replicas(stacks, append_in_place, initial)

    def rebuild(pid, stack):
        apis[pid] = GroupCommunication(stack)
        replicas[pid] = ActiveReplica(stack, append_in_place, initial)

    enable_recovery(world, stacks, config=config, on_rebuild=rebuild)
    for i in range(3):
        apis["p00"].abcast(("cmd", "client", i, i))
    assert run_until(
        world, lambda: all(r.state == [0, 1, 2] for r in replicas.values()), timeout=30_000
    )
    world.crash("p02")
    world.run_for(100.0)
    world.recover("p02")
    assert run_until(
        world,
        lambda: world.metrics.counters.get("replica.snapshots_installed") >= 1,
        timeout=30_000,
    )
    apis["p01"].abcast(("cmd", "client", 3, 3))
    assert run_until(
        world, lambda: all(r.state == [0, 1, 2, 3] for r in replicas.values()), timeout=30_000
    )
    assert initial == []
    states = [r.state for r in replicas.values()]
    assert len({id(state) for state in states}) == len(states)
