"""Workload and fault-schedule generators, and the workload replay."""

from repro.workload.driver import schedule_broadcasts
from repro.workload.generators import BroadcastOp, FaultEvent, FaultPlan, explore_mix

__all__ = [
    "BroadcastOp",
    "FaultEvent",
    "FaultPlan",
    "explore_mix",
    "schedule_broadcasts",
]
