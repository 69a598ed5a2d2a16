"""Generic broadcast: conflict relations + thrifty implementation."""

from repro.gbcast.conflict import (
    ABCAST_CLASS,
    DEPOSIT,
    PASSIVE_REPLICATION,
    PRIMARY_CHANGE,
    RBCAST_ABCAST,
    RBCAST_CLASS,
    UPDATE,
    WITHDRAWAL,
    ConflictRelation,
    bank_relation,
)
from repro.gbcast.quorum import QuorumGenericBroadcast
from repro.gbcast.thrifty import ThriftyGenericBroadcast

__all__ = [
    "ABCAST_CLASS",
    "ConflictRelation",
    "DEPOSIT",
    "PASSIVE_REPLICATION",
    "QuorumGenericBroadcast",
    "PRIMARY_CHANGE",
    "RBCAST_ABCAST",
    "RBCAST_CLASS",
    "ThriftyGenericBroadcast",
    "UPDATE",
    "WITHDRAWAL",
    "bank_relation",
]
