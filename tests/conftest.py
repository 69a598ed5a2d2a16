"""Shared test helpers."""

from __future__ import annotations

from typing import Callable

import pytest

from repro.core.api import GroupCommunication
from repro.core.new_stack import NewArchitectureStack, StackConfig, build_new_group
from repro.gbcast.conflict import RBCAST_ABCAST, ConflictRelation
from repro.sim.world import World


def run_until(
    world: World,
    predicate: Callable[[], bool],
    timeout: float = 10_000.0,
    step: float = 10.0,
) -> bool:
    """Thin wrapper over :meth:`repro.sim.world.World.run_until`."""
    return world.run_until(predicate, timeout=timeout, step=step)


def edge_nacks(world: World, pid: str, suspect: str) -> list[str]:
    """The peers ``pid``'s reliable broadcast NACKed at the instant its
    monitor suspected ``suspect`` (sorted; empty: no such edge)."""
    edges = [
        record.time
        for record in world.trace.select(pid=pid, component="fd", event="suspect")
        if record.details["peer"] == suspect
    ]
    if not edges:
        return []
    return sorted(
        record.details["peer"]
        for record in world.trace.select(pid=pid, component="rb", event="nack")
        if record.time == edges[0]
    )


def new_group(
    count: int = 3,
    seed: int = 1,
    conflict: ConflictRelation = RBCAST_ABCAST,
    config: StackConfig | None = None,
) -> tuple[World, dict[str, NewArchitectureStack], dict[str, GroupCommunication]]:
    """World + new-architecture stacks + facades, started."""
    world = World(seed=seed)
    stacks = build_new_group(world, count, conflict=conflict, config=config)
    apis = {pid: GroupCommunication(stack) for pid, stack in stacks.items()}
    world.start()
    return world, stacks, apis


@pytest.fixture
def world() -> World:
    return World(seed=42)
