"""The replicated bank account of Section 4.2.

"Consider a replicated service managing client bank accounts, with
deposit and withdrawal operations ...  deposit operations are
commutative, i.e., they do not need to be ordered with respect to
themselves.  This ordering typically can be solved using generic
broadcast.  Traditional stacks do not provide any specific solution:
atomic broadcast would have to be used both for deposit and withdrawal
operations.  This would induce a non-necessary overhead."

Correctness argument for running deposits un-ordered: every deposit
conflicts with every withdrawal, and withdrawals conflict with each
other; therefore the *set* of operations delivered before any given
withdrawal is identical at every replica, so every replica takes the same
accept/reject decision and ends with the same balance — even though
deposits may interleave differently.  (Asserted by the tests and the
``consistent`` flag of :func:`bank_audit`.)

A bank replica is an :class:`~repro.replication.state_machine.ActiveReplica`
over :func:`apply_bank` and :class:`BankState`, broadcasting each command
under the class :func:`classify` gives it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.new_stack import NewArchitectureStack
from repro.gbcast.conflict import DEPOSIT, WITHDRAWAL
from repro.replication.state_machine import ActiveReplica, attach_active_replicas


@dataclass
class BankState:
    balance: int = 0
    accepted: int = 0
    rejected: int = 0
    op_log: list = field(default_factory=list)


def classify(command: tuple) -> str:
    """Map a bank command to its generic-broadcast conflict class."""
    op = command[0]
    if op == "deposit":
        return DEPOSIT
    if op == "withdraw":
        return WITHDRAWAL
    raise ValueError(f"unknown bank operation {op!r}")


def apply_bank(state: BankState, command: tuple) -> tuple[BankState, Any]:
    """Apply a command in place; returns (state, result)."""
    op, amount = command
    if amount < 0:
        return state, ("rejected", state.balance)
    if op == "deposit":
        state.balance += amount
        state.accepted += 1
        state.op_log.append(command)
        return state, ("ok", state.balance)
    if op == "withdraw":
        if state.balance >= amount:
            state.balance -= amount
            state.accepted += 1
            state.op_log.append(command)
            return state, ("ok", state.balance)
        state.rejected += 1
        return state, ("rejected", state.balance)
    raise ValueError(f"unknown bank operation {op!r}")


def attach_bank_replicas(
    stacks: dict[str, NewArchitectureStack], initial_balance: int = 0
) -> dict[str, ActiveReplica]:
    """Wire a bank replica onto every stack (conflict relation must be
    ``bank_relation()``, or ``ConflictRelation.always()`` for the
    traditional all-atomic baseline of Section 4.2)."""
    return attach_active_replicas(stacks, apply_bank, BankState(balance=initial_balance), classify)


def bank_audit(replicas: dict[str, ActiveReplica]) -> dict:
    """Cross-replica consistency report."""
    balances = {pid: r.state.balance for pid, r in replicas.items()}
    unique = set(balances.values())
    return {
        "balances": balances,
        "consistent": len(unique) == 1,
        "executed": {pid: len(r._executed) for pid, r in replicas.items()},
    }
