"""Tests for the Section 4.2 replicated bank account."""

import pytest

from repro.core.new_stack import StackConfig, build_new_group, enable_recovery
from repro.gbcast.conflict import ConflictRelation, bank_relation
from repro.monitoring.component import MonitoringPolicy
from repro.net.topology import LinkModel
from repro.replication.bank import apply_bank, attach_bank_replicas, bank_audit, classify, BankState
from repro.replication.client import spawn_client
from repro.replication.state_machine import ActiveReplica
from repro.sim.world import World

from tests.conftest import new_group, run_until


def bank_setup(count=3, seed=1, conflict=None, clients=2, initial=100):
    world, stacks, _ = new_group(
        count=count, seed=seed, conflict=conflict or bank_relation()
    )
    replicas = attach_bank_replicas(stacks, initial_balance=initial)
    cs = [
        spawn_client(world, sorted(stacks), mode="primary", retry_timeout=600.0)
        for _ in range(clients)
    ]
    world.start()
    return world, stacks, replicas, cs


def test_classify():
    assert classify(("deposit", 10)) == "deposit"
    assert classify(("withdraw", 10)) == "withdrawal"
    with pytest.raises(ValueError):
        classify(("transfer", 10))


def test_apply_bank_semantics():
    state = BankState(balance=50)
    state, result = apply_bank(state, ("deposit", 25))
    assert result == ("ok", 75)
    state, result = apply_bank(state, ("withdraw", 100))
    assert result == ("rejected", 75)
    state, result = apply_bank(state, ("withdraw", 75))
    assert result == ("ok", 0)
    state, result = apply_bank(state, ("deposit", -5))
    assert result == ("rejected", 0)


def test_deposits_only_converge_without_consensus():
    world, stacks, replicas, clients = bank_setup(seed=2)
    for i, client in enumerate(clients):
        for j in range(5):
            client.submit(("deposit", 10))
    assert run_until(
        world,
        lambda: all(len(c.completed) == 5 for c in clients),
        timeout=60_000,
    )
    assert run_until(
        world,
        lambda: bank_audit(replicas)["consistent"]
        and replicas["p00"].state.balance == 200,
        timeout=30_000,
    )
    # Commutative deposits never invoked consensus (the thrifty property).
    assert world.metrics.counters.get("consensus.proposals") == 0


def test_mixed_deposits_and_withdrawals_stay_consistent():
    world, stacks, replicas, clients = bank_setup(seed=3, initial=50)
    ops = [("deposit", 20), ("withdraw", 40), ("deposit", 5), ("withdraw", 100)]
    for client in clients:
        for op in ops:
            client.submit(op)
    assert run_until(
        world,
        lambda: all(len(c.completed) == len(ops) for c in clients),
        timeout=120_000,
    )
    assert run_until(world, lambda: bank_audit(replicas)["consistent"], timeout=60_000)
    audit = bank_audit(replicas)
    balances = set(audit["balances"].values())
    assert len(balances) == 1
    balance = balances.pop()
    assert balance >= 0  # the invariant withdrawals must protect
    # Withdrawals forced at least one conflict-driven stage closure.
    assert world.metrics.counters.get("gbcast.endstages") > 0


def test_withdrawal_decisions_identical_across_replicas():
    world, stacks, replicas, clients = bank_setup(seed=4, initial=30, clients=3)
    for client in clients:
        client.submit(("withdraw", 20))
    assert run_until(
        world,
        lambda: all(len(c.completed) == 1 for c in clients),
        timeout=60_000,
    )
    assert run_until(world, lambda: bank_audit(replicas)["consistent"], timeout=60_000)
    # Only one of the three concurrent withdrawals can succeed (30 < 40).
    results = [c.completed[0][1][0] for c in clients]
    assert sorted(results) == ["ok", "rejected", "rejected"]
    assert replicas["p00"].state.balance == 10
    rejected = {pid: r.state.rejected for pid, r in replicas.items()}
    assert len(set(rejected.values())) == 1


def test_all_atomic_baseline_uses_consensus_for_deposits():
    # The traditional alternative (Section 4.2): atomic broadcast for
    # everything — even deposits pay for consensus when concurrent.
    world, stacks, replicas, clients = bank_setup(
        seed=5, conflict=ConflictRelation.always()
    )
    for client in clients:
        for j in range(3):
            client.submit(("deposit", 10))
    assert run_until(
        world,
        lambda: all(len(c.completed) == 3 for c in clients),
        timeout=60_000,
    )
    assert run_until(world, lambda: bank_audit(replicas)["consistent"], timeout=30_000)
    assert world.metrics.counters.get("consensus.proposals") > 0


def test_bank_replica_survives_crash_and_recovery():
    # Deposits and withdrawals under load on a WAN-ish link; p02 crashes
    # and recovers within the exclusion timeout, is re-admitted, and its
    # new replica resumes from the state-transfer snapshot.
    config = StackConfig(monitoring=MonitoringPolicy(exclusion_timeout=5_000.0))
    world = World(seed=7, default_link=LinkModel(3.0, 8.0))
    stacks = build_new_group(world, 3, conflict=bank_relation(), config=config)
    replicas = attach_bank_replicas(stacks, initial_balance=100)

    def rebuild(pid, stack):
        replicas[pid] = ActiveReplica(stack, apply_bank, BankState(balance=100), classify)

    enable_recovery(world, stacks, config=config, on_rebuild=rebuild)
    client = spawn_client(world, ["p00"], mode="primary", retry_timeout=5_000.0)
    world.start()
    ops = [("withdraw", 30) if i % 5 == 4 else ("deposit", 10) for i in range(60)]
    for i, op in enumerate(ops):
        world.scheduler.at(20.0 + 20.0 * i, lambda op=op: client.submit(op))
    world.crash("p02", at=300.0)
    world.recover("p02", at=800.0)
    assert run_until(world, lambda: len(client.completed) == len(ops), timeout=60_000)
    assert run_until(
        world,
        lambda: all(len(r.command_log) == len(ops) for r in replicas.values()),
        timeout=30_000,
    )
    audit = bank_audit(replicas)
    assert audit["consistent"], audit["balances"]
    assert audit["balances"]["p02"] == 100 + 48 * 10 - 12 * 30  # each op once
    assert world.processes["p02"].incarnation == 1
    assert world.metrics.counters.get("replica.snapshots_installed") >= 1
    assert stacks["p00"].membership.view.id == 0  # re-admitted, never excluded
