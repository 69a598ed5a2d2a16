"""Replay a generated workload on the world clock."""

from __future__ import annotations

from typing import Callable

from repro.sim.world import World
from repro.workload.generators import BroadcastOp


def schedule_broadcasts(
    world: World, ops: list[BroadcastOp], send: Callable[[int, BroadcastOp], None]
) -> int:
    """Schedule every op on the world clock; returns the op count.

    ``send(sender_index, op)`` performs the broadcast at ``op.at``.
    """
    for op in ops:
        world.scheduler.at(op.at, send, op.sender_index, op)
    return len(ops)
