"""Replication techniques over the group communication stacks.

One request path (:class:`~repro.replication.replica.Replica`: intake,
dedup, reply) under one active replica and one primary-backup core.
Active replication (state machine) g-broadcasts each command under the
class its classifier gives — atomic broadcast by default, the Section 4.2
bank's deposit/withdrawal classes for the bank.  Passive replication
runs over generic broadcast (the paper's Fig. 8 design) or over view
synchrony (the traditional baseline), both on the primary pipeline that
is footnote 9's FIFO sender.

``apply_fn(state, command) -> (state', result)`` may mutate the state it
is given: every replica owns its copy of the state, and copies what a
snapshot or an update hands it.
"""

from repro.replication.bank import (
    BankState,
    apply_bank,
    attach_bank_replicas,
    bank_audit,
    classify,
)
from repro.replication.client import ReplicationClient, spawn_client
from repro.replication.primary_backup import PassiveReplicaGB, attach_passive_replicas
from repro.replication.primary_backup_vs import PassiveReplicaVS, attach_passive_vs_replicas
from repro.replication.state_machine import ActiveReplica, attach_active_replicas

__all__ = [
    "ActiveReplica",
    "BankState",
    "PassiveReplicaGB",
    "PassiveReplicaVS",
    "ReplicationClient",
    "apply_bank",
    "attach_active_replicas",
    "attach_bank_replicas",
    "attach_passive_replicas",
    "attach_passive_vs_replicas",
    "bank_audit",
    "classify",
    "spawn_client",
]
