"""Deterministic next-hop computation of the dissemination overlay.

Pure-function coverage: ring successors, the spur to the head, suspicion
re-routing, and the recomputation that view installs and reincarnations
get for free because hops are a function of the current membership.
"""

import pytest

from repro.net.overlay import DisseminationOverlay

FIVE = ["p00", "p01", "p02", "p03", "p04"]


def test_ring_order_rotates_to_the_origin():
    ring = DisseminationOverlay()
    assert ring.order(FIVE, "p00") == FIVE
    assert ring.order(FIVE, "p02") == ["p02", "p03", "p04", "p00", "p01"]
    # Membership arrival order is irrelevant: the ring is sorted first.
    assert ring.order(list(reversed(FIVE)), "p02") == ["p02", "p03", "p04", "p00", "p01"]


def test_ring_chain_covers_the_group_once():
    ring = DisseminationOverlay()
    # Follow the chain from the origin: every member appears exactly once
    # and the predecessor of the origin forwards to nobody.
    covered = ["p00"]
    pid = "p00"
    while True:
        succ = ring.ring_successor(FIVE, "p00", pid)
        if succ is None:
            break
        covered.append(succ)
        pid = succ
    assert covered == FIVE
    assert ring.ring_successor(FIVE, "p00", "p04") is None


def test_ring_each_node_has_one_hop():
    ring = DisseminationOverlay()
    for pid in FIVE[:-1]:
        hops, reroutes = ring.next_hops(FIVE, "p00", pid, set())
        assert len(hops) == 1 and reroutes == 0
    assert ring.next_hops(FIVE, "p00", "p04", set()) == ([], 0)


def test_ring_reroutes_around_a_suspect_but_still_copies_it():
    ring = DisseminationOverlay()
    hops, reroutes = ring.next_hops(FIVE, "p00", "p00", {"p01"})
    # The suspect keeps its best-effort copy; the chain continues past it.
    assert hops == ["p01", "p02"]
    assert reroutes == 1
    # Two adjacent suspects: the chain skips both.
    hops, reroutes = ring.next_hops(FIVE, "p00", "p00", {"p01", "p02"})
    assert hops == ["p01", "p02", "p03"]
    assert reroutes == 2


def test_ring_suspect_at_end_of_chain_never_wraps_to_origin():
    ring = DisseminationOverlay()
    hops, reroutes = ring.next_hops(FIVE, "p00", "p03", {"p04"})
    # p04 gets its best-effort copy but the chain stops: the origin
    # already has the packet.
    assert hops == ["p04"]
    assert reroutes == 1


def test_non_member_falls_back_to_flood():
    ring = DisseminationOverlay()
    # A stale view mid-change: the sender is no longer (or not yet) a
    # member — flooding is always safe and dedup absorbs the cost.
    hops, reroutes = ring.next_hops(FIVE, "p00", "p09", set())
    assert hops == FIVE and reroutes == 0
    hops, _ = ring.next_hops(FIVE, "p09", "p00", set())
    assert hops == [p for p in FIVE if p != "p00"]


def test_hops_recompute_on_membership_change():
    # The "repair on view install" property: hops are a pure function of
    # the current membership, so handing in the post-view member list IS
    # the recomputation.
    ring = DisseminationOverlay()
    assert ring.ring_successor(FIVE, "p00", "p00") == "p01"
    after = [p for p in FIVE if p != "p01"]  # p01 excluded by a view change
    assert ring.ring_successor(after, "p00", "p00") == "p02"
    # A joiner slots into sorted position.
    joined = after + ["p01"]
    assert ring.ring_successor(joined, "p00", "p00") == "p01"


def test_order_cache_stays_bounded():
    ring = DisseminationOverlay()
    for i in range(200):
        ring.order([f"p{i:03d}", f"p{i + 1:03d}"], f"p{i:03d}")
    assert len(ring._order_cache) <= 65


def _walk(overlay, members, origin, suspects=frozenset()):
    """Follow the hops from ``origin``: who sent to whom, and how many
    hops from the origin each member first got the packet."""
    sends = {pid: [] for pid in members}
    depth = {origin: 0}
    frontier = [origin]
    while frontier:
        pid = frontier.pop(0)
        hops, _ = overlay.next_hops(members, origin, pid, set(suspects))
        sends[pid] = hops
        for hop in hops:
            assert hop not in depth, f"{hop} receives {origin}'s packet twice"
            depth[hop] = depth[pid] + 1
            frontier.append(hop)
    return sends, depth


@pytest.mark.parametrize("n", range(2, 10))
def test_ring_with_spur_covers_the_group_once_from_every_origin(n):
    ring = DisseminationOverlay()
    members = [f"p{i:02d}" for i in range(n)]
    head = ring.head(members)
    assert head == "p00"
    for origin in members:
        sends, depth = _walk(ring, members, origin)
        # n - 1 transmissions, every member reached exactly once.
        assert sorted(depth) == members
        assert sum(len(hops) for hops in sends.values()) == n - 1
        assert len(sends[origin]) <= 2
        assert all(len(hops) <= 1 for pid, hops in sends.items() if pid != origin)
        if origin == head:
            # Bit for bit the plain chain: no spur to oneself.
            assert sends[origin] == members[1:2]
            assert max(depth.values()) == n - 1
        else:
            # The member who orders is the origin's first stop, and a leaf.
            assert sends[origin][0] == head and depth[head] == 1
            assert sends[head] == []
            assert max(depth.values()) == max(1, n - 2)


def test_ring_head_follows_the_view_order_not_the_sort_order():
    # After p00 was excluded and re-admitted the view lists it last: the
    # round-0 coordinator and the stage closer are p01, and so is the
    # spur's end.  The chain stays the sorted ring without the head.
    ring = DisseminationOverlay()
    view = ["p01", "p02", "p03", "p04", "p00"]
    assert ring.head(view) == "p01"
    sends, depth = _walk(ring, view, "p03")
    assert sends["p03"] == ["p01", "p04"] and sends["p01"] == []
    assert sends["p04"] == ["p00"] and sends["p00"] == ["p02"] and sends["p02"] == []
    assert sorted(depth) == sorted(view)


def test_suspected_head_costs_no_reroute_and_strands_nothing():
    ring = DisseminationOverlay()
    for origin in FIVE[1:]:
        assert ring.next_hops(FIVE, origin, origin, {"p00"}) == ring.next_hops(
            FIVE, origin, origin, set()
        )
        # Nobody's hops depend on the head: with it gone for good, the
        # chain still reaches every other member.
        _sends, depth = _walk(ring, FIVE, origin, suspects={"p00"})
        assert sorted(depth) == FIVE
        assert all(
            ring.next_hops(FIVE, origin, pid, {"p00"})[1] == 0 for pid in FIVE
        )


def test_suspected_chain_member_is_routed_around_under_the_spur():
    ring = DisseminationOverlay()
    # Origin p02: spur to p00, chain p02 -> p03 -> p04 -> p01.
    hops, reroutes = ring.next_hops(FIVE, "p02", "p02", {"p03"})
    assert hops == ["p00", "p03", "p04"] and reroutes == 1
    hops, reroutes = ring.next_hops(FIVE, "p02", "p03", {"p04"})
    assert hops == ["p04", "p01"] and reroutes == 1
    # The chain never wraps into the head or back to the origin.
    hops, reroutes = ring.next_hops(FIVE, "p02", "p04", {"p01"})
    assert hops == ["p01"] and reroutes == 1
    assert ring.next_hops(FIVE, "p02", "p01", set()) == ([], 0)
