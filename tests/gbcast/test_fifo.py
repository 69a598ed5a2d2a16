"""Unit tests for FIFO generic broadcast (footnote 9).

FIFO by construction — the passive primary's one-outstanding-update
pipeline — is tested in ``tests/replication/test_passive_gb.py``.
"""

from repro.gbcast.conflict import ConflictRelation

from tests.conftest import new_group, run_until


def delivered_payloads(stack):
    return [
        m.payload
        for m, _path in stack.gbcast.delivered_log
        if not m.msg_class.startswith("_")
    ]


#: "ordered" messages conflict among themselves; "free" with nothing.
MIXED = ConflictRelation.build(["ordered", "free"], [("ordered", "ordered")])


def test_fifo_emerges_natively_even_across_classes():
    # Footnote 9 requires FIFO generic broadcast for passive replication.
    # In this implementation per-sender FIFO is *emergent*: the reliable
    # channels are FIFO, relays preserve per-origin order, each process
    # acks in rdeliver order, and ack completion is a max of per-link
    # FIFO arrivals — so a non-conflicting follower can never overtake
    # its conflicting predecessor, even through a stage closure.
    world, stacks, _ = new_group(conflict=MIXED, seed=1)
    world.run_for(20.0)
    # Slow acks from p02 keep o1 acked-but-undelivered for a long window.
    from repro.net.topology import LinkModel

    world.transport.set_link("p02", "p00", LinkModel(80.0, 0.0))
    world.transport.set_link("p02", "p01", LinkModel(80.0, 0.0))
    stacks["p01"].gbcast.gbcast_payload("o1", "ordered")
    world.run_for(10.0)  # o1 acked at p00/p01, delivery blocked on p02
    stacks["p00"].gbcast.gbcast_payload("o2", "ordered")   # conflicts => closure
    stacks["p00"].gbcast.gbcast_payload("f", "free")       # must not overtake
    world.run_for(30.0)
    world.transport.set_link("p02", "p00", LinkModel(1.0, 1.0))
    world.transport.set_link("p02", "p01", LinkModel(1.0, 1.0))
    assert run_until(
        world,
        lambda: all(len(delivered_payloads(s)) == 3 for s in stacks.values()),
        timeout=60_000,
    )
    assert world.metrics.counters.get("gbcast.endstages") >= 1  # closure really ran
    for s in stacks.values():
        order = delivered_payloads(s)
        assert order.index("o2") < order.index("f")  # FIFO held anyway
