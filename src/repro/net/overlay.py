"""Dissemination overlay: deterministic ring payload routing.

Flood dissemination (the default everywhere) makes the *origin* unicast
every payload to all n−1 members, so the origin's NIC is the throughput
ceiling — the classic bottleneck Ring Paxos removes by routing payloads
along a ring so that every node sends each body at most once.  This
module computes the next hops of that routing, purely as a function of
the current membership, the packet's origin, and the failure detector's
current suspect set.  Members are sorted and rotated so the origin comes
first.  The origin sends to the **head** — the view's first member, the
one who orders (:meth:`DisseminationOverlay.head`) — and to its
successor on the chain of everybody else; a chain member forwards to
its successor, the last one and the head to nobody.  O(1) payload sends
per node per broadcast (2 at the origin) instead of O(n), every body is
at the head after one hop, and the head is a *leaf*: crashed or
suspected, it strands nobody's packet.  Origin = head: the plain chain.

**Failure repair** (the part that keeps rbcast's agreement argument
intact, see ``repro.broadcast.rbcast``): a suspected member is routed
*around* — its forwarding duty is adopted by the node that would have
sent to it, which skips to the next unsuspected successor — while the
packet is still sent to the suspect directly as a best-effort hop, so
a *falsely* suspected member keeps receiving payloads and only the
chain no longer depends on it.  Each
skip is reported as a re-route so callers can count ``rb.reroutes``.

Everything here is deterministic: hops depend only on the sorted member
list, the origin pid, and the (sorted) suspect set — never on arrival
order or randomness — so same-seed runs stay byte-identical and the
routing recomputes itself on every view install or reincarnation simply
by being evaluated against the current membership at send time.
"""

from __future__ import annotations

from typing import Collection, Sequence

POLICIES = ("flood", "ring")


def watcher(members: Sequence[str], suspects: Collection[str] = ()) -> str | None:
    """The first member, in the view's own order, not in ``suspects``
    (None: there is none): the one who orders — generic broadcast's stage
    closer, consensus's ``coordinator(0)`` and the ring's head while
    nobody is suspected — and therefore the one everybody watches, and
    who watches everybody (``repro.fd.heartbeat``, R1).  Defined here,
    at the lowest layer that asks."""
    return next((m for m in members if m not in suspects), None)


class DisseminationOverlay:
    """Next-hop computation for ring payload dissemination."""

    def __init__(self) -> None:
        # Rotated ring order per (members, origin): membership changes
        # rarely relative to packet rate, so the sort is paid once per
        # (view, origin) pair, not once per packet.
        self._order_cache: dict[tuple[tuple[str, ...], str], list[str]] = {}

    # ------------------------------------------------------------------
    # Deterministic structure
    # ------------------------------------------------------------------
    def order(self, members: Sequence[str], origin: str) -> list[str]:
        """Members sorted and rotated so ``origin`` is at index 0."""
        key = (tuple(members), origin)
        cached = self._order_cache.get(key)
        if cached is not None:
            return cached
        ring = sorted(set(key[0]))
        if origin in ring:
            at = ring.index(origin)
            ring = ring[at:] + ring[:at]
        if len(self._order_cache) > 64:
            # Views change rarely; a tiny cache is plenty, and clearing
            # beats unbounded growth across many reconfigurations.
            self._order_cache.clear()
        self._order_cache[key] = ring
        return ring

    @staticmethod
    def head(members: Sequence[str]) -> str | None:
        """The view's first member *as listed* (a rejoiner is listed last):
        the :func:`watcher` of a group that suspects nobody.
        Deliberately blind to suspicions: members that disagreed
        about the head would cut each other off the chain, and the head
        is a leaf, so a dead one strands nothing."""
        return watcher(members)

    def ring_successor(self, members: Sequence[str], origin: str, pid: str) -> str | None:
        """``pid``'s failure-free chain successor (None = end of chain)."""
        hops, _ = self._ring_hops(
            self.order(members, origin), self.head(members), pid, set()
        )
        return hops[-1] if hops else None

    # ------------------------------------------------------------------
    # Routing with failure repair
    # ------------------------------------------------------------------
    def next_hops(
        self,
        members: Sequence[str],
        origin: str,
        pid: str,
        suspects: set[str],
    ) -> tuple[list[str], int]:
        """Where ``pid`` forwards a packet of ``origin``, and how many
        suspects were routed around.

        Falls back to flooding the whole group when ``pid`` or the
        origin is outside the membership (a stale view mid-change): the
        flood is always safe, and dedup absorbs the redundancy.
        """
        ring = self.order(members, origin)
        if pid not in ring or origin not in ring:
            return [q for q in ring if q != pid], 0
        return self._ring_hops(ring, self.head(members), pid, suspects)

    def _ring_hops(
        self, ring: list[str], head: str | None, pid: str, suspects: set[str]
    ) -> tuple[list[str], int]:
        origin = ring[0]
        hops: list[str] = []
        if head != origin:
            if pid == head:
                return hops, 0  # the spur's end: a leaf, nothing hangs off it
            if pid == origin:
                hops.append(head)  # suspected or not: no chain to re-route
            ring = [q for q in ring if q != head]
        reroutes = 0
        for succ in ring[ring.index(pid) + 1 :]:
            # A suspect is routed around, but still handed its copy: if
            # the suspicion is false it keeps receiving payloads.
            hops.append(succ)
            if succ not in suspects:
                break
            reroutes += 1
        return hops, reroutes
