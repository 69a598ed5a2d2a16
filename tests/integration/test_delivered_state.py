"""What a member keeps per delivered message: the delivered-id stores.

Generic and atomic broadcast keep every id they delivered in a
:class:`repro.broadcast.delivered.DeliveredIds`.  Across a crash, a recovery
and the state transfer that brings the new incarnation back, the ids a
snapshot hands over are exactly those of a ``set`` kept beside the store
— so a snapshot is also the same size on the wire — and the stores grow
by a bit per delivered id, not by a hashed entry.
"""

from __future__ import annotations

import sys

from repro.core.api import GroupCommunication
from repro.core.new_stack import StackConfig, build_new_group, enable_recovery
from repro.gbcast.conflict import DEPOSIT, WITHDRAWAL, bank_relation
from repro.monitoring.component import MonitoringPolicy
from repro.broadcast.delivered import DeliveredIds
from repro.net.topology import LinkModel
from repro.net.wire import payload_size
from repro.sim.world import World

from tests.conftest import run_until


class ShadowedIds(DeliveredIds):
    """A store that also keeps, beside it, the ``set`` it replaces."""

    __slots__ = ("shadow",)

    def __init__(self) -> None:
        self.shadow: set = set()
        super().__init__()

    def add(self, mid) -> None:
        self.shadow.add(mid)
        super().add(mid)


def _shadow(stack) -> None:
    stack.gbcast._delivered = ShadowedIds()
    stack.abcast._delivered = ShadowedIds()


def _send(apis, i: int) -> None:
    sender = apis[f"p0{i % 3}"]
    sender.gbcast(("op", i), WITHDRAWAL if i % 7 == 0 else DEPOSIT)


def test_snapshots_hand_over_what_a_set_would_across_a_recovery():
    config = StackConfig(monitoring=MonitoringPolicy(exclusion_timeout=5_000.0))
    world = World(seed=11, default_link=LinkModel(3.0, 8.0))
    stacks = build_new_group(world, 3, conflict=bank_relation(), config=config)
    apis = {pid: GroupCommunication(stack) for pid, stack in stacks.items()}
    for stack in stacks.values():
        _shadow(stack)

    def rebuild(pid, stack):
        _shadow(stack)
        apis[pid] = GroupCommunication(stack)

    enable_recovery(world, stacks, config=config, on_rebuild=rebuild)
    world.start()
    count = 120
    for i in range(count):
        world.scheduler.at(20.0 + 12.0 * i, _send, apis, i)
    world.crash("p02", at=300.0)
    world.recover("p02", at=700.0)
    assert run_until(
        world,
        lambda: all(len(s.gbcast._delivered) >= count - 10 for s in stacks.values())
        and world.metrics.counters.get("gm.readmissions") >= 1,
        timeout=30_000,
    )
    world.run_for(2_000.0)
    recovered = world.processes["p02"].incarnation
    assert recovered >= 1
    for pid, stack in stacks.items():
        for layer in (stack.gbcast, stack.abcast):
            store = layer._delivered
            handed = layer.snapshot()["delivered"]
            assert type(handed) is set
            assert handed == store.shadow and len(store) == len(handed)
            assert payload_size(handed) == payload_size(store.shadow)
        # The new incarnation's own messages are in their own stream.
        ids = stacks[pid].gbcast.snapshot()["delivered"]
        assert any(mid.sender == "p02" and mid.incarnation == recovered for mid in ids)
        assert any(mid.sender == "p02" and mid.incarnation == 0 for mid in ids)
    # What the recovered member's stores hold came partly from the
    # snapshot it installed, not from its own deliveries.
    rejoined = stacks["p02"].gbcast
    assert len(rejoined._delivered) > len(rejoined.delivered_log)


def _footprint(store: DeliveredIds) -> int:
    """Bytes the store holds: itself, its dict, every stream and its
    bitmap's allocation (a sender key is the process's own name)."""
    streams = store._streams
    return sys.getsizeof(store) + sys.getsizeof(streams) + sum(
        (sys.getsizeof(key) if type(key) is tuple else 0)
        + sys.getsizeof(stream)
        + sys.getsizeof(stream.bits)
        for key, stream in streams.items()
    )


def test_the_stores_grow_by_at_most_a_byte_per_delivered_id():
    """A 3-member bank group at 100 ops/s: between 10 s and 30 s the
    stores grow by at most one byte per id they gained (a ``set`` grows
    by a 16-byte table slot at most 60 % full per id, before the id)."""
    world = World(seed=1)
    stacks = build_new_group(world, 3, conflict=bank_relation())
    apis = {pid: GroupCommunication(stack) for pid, stack in stacks.items()}
    world.start()
    for i in range(3_000):
        world.scheduler.at(5.0 + 10.0 * i, _send, apis, i)

    stores = [store for s in stacks.values() for store in (s.gbcast._delivered, s.abcast._delivered)]
    readings = {}
    for until in (2_000.0, 10_000.0, 30_000.0):
        world.run_for(until - world.now)
        readings[until] = (sum(map(len, stores)), sum(map(_footprint, stores)))
    (ids_2, bytes_2), (ids_10, bytes_10), (ids_30, bytes_30) = readings.values()
    assert 0 < ids_2 < ids_10 < ids_30
    assert ids_30 - ids_10 >= 3 * 1_900  # every member delivered nearly every op
    assert bytes_30 - bytes_10 <= ids_30 - ids_10
