"""Quorum-based thrifty generic broadcast (Aguilera et al. [1] style).

The base implementation (:mod:`repro.gbcast.thrifty`) fast-delivers a
message on acks from *all* current members — simple, but one slow or
crashed member disables the fast path until the stage is closed.  This
variant requires only a **quorum** of

    q = n - f,   f = ⌊(n - 1) / 3⌋

acks (for n ≤ 3 this degenerates to all-ack).  With n > 3f the fast path
keeps working through up to f crashes — the availability the paper's
reference [1] buys with quorums.

The price is a *gather* round at stage closure: a single process's acked
set no longer suffices (it may miss messages fast-delivered elsewhere),
so the closing process first collects the acked sets of ``n - f``
members, each of which **freezes** its stage-k acking when it replies.
A message *qualifies* for the closure set if it appears in at least
``q - f`` of the collected sets:

* (completeness) if some process fast-delivered m, at least q members
  acked m before freezing; at most f of them are missing from any
  collection of n - f sets, so m appears ≥ q - f times;
* (exclusivity) two conflicting messages cannot both qualify: their
  acker sets are disjoint within a stage, so together they would need
  2(q - f) = 2(n - 2f) ≤ n - f collected sets, i.e. n ≤ 3f —
  contradiction.  The qualifying set is therefore conflict-free and safe
  to deliver in deterministic order, exactly like the base algorithm's
  closure set.

The qualifying set then rides atomic broadcast as the ``S`` of the
stage's ``ENDSTAGE(k, S, T)``; like the ENDSTAGE, the GATHER_OK replies
carry ids, never bodies.  The tail ``T`` is the gatherer's pending set
minus ``S``: a tail message appears in fewer than ``q - f`` of the
``n - f`` frozen sets, so at most ``(q - f - 1) + f < q`` members can
ever ack it in stage ``k`` — it is fast-delivered nowhere and may be
ordered behind ``S``.  Everything else is inherited from the base class:
stage bump, re-acking, the excluded-sender rule, the wait for named
bodies below a-delivery, and the one-closer rule —
only the stage's closer gathers, a member frozen by its GATHER is in the
same position as one that deferred its own close, and the same ladder
(next unsuspected member on a suspicion edge, self after the fast-path
timeout) keeps a crashed gatherer from wedging the stage.
"""

from __future__ import annotations

from collections import Counter

from repro.gbcast.thrifty import ThriftyGenericBroadcast
from repro.net.message import AppMessage, MsgId

GATHER_PORT = "gb.gather"
GATHER_OK_PORT = "gb.gather_ok"


class QuorumGenericBroadcast(ThriftyGenericBroadcast):
    """Generic broadcast with an n−f ack quorum fast path (n > 3f)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._gathering: dict[int, dict[str, tuple[MsgId, ...]]] = {}
        self.register_port(GATHER_PORT, self._on_gather)
        self.register_port(GATHER_OK_PORT, self._on_gather_ok)

    # ------------------------------------------------------------------
    # Quorum arithmetic
    # ------------------------------------------------------------------
    def _f(self) -> int:
        return (len(self.group_provider()) - 1) // 3

    def ack_quorum(self) -> int:
        return len(self.group_provider()) - self._f()

    # ------------------------------------------------------------------
    # Fast path: quorum instead of all
    # ------------------------------------------------------------------
    def _check_fast(self, mid: MsgId) -> None:
        message = self._pending.get(mid)
        if message is None:
            return
        members = self.group_provider()
        acks = self._acks_received.get(mid, ())
        if len(acks) < self.ack_quorum() or self.pid not in members:
            return
        if sum(m in acks for m in members) >= self.ack_quorum():
            self._deliver(message, "fast")

    def _suspects_block_fast_path(self) -> bool:
        suspects = self.monitor.suspects
        if len(suspects) <= self._f():
            return False
        return sum(m in suspects for m in self.group_provider()) > self._f()

    # ------------------------------------------------------------------
    # Stage closure: gather, then abcast the qualifying set
    # ------------------------------------------------------------------
    def _end_stage(self, reason: str) -> None:
        stage = self._stage
        self._gathering[stage] = {}
        self.trace("gather_start", stage=stage, reason=reason)
        self.world.metrics.counters.inc("gbcast.gathers")
        for member in self.group_provider():
            self.channel.send(member, GATHER_PORT, stage)

    def _on_gather(self, src: str, stage: int) -> None:
        if stage != self._stage:
            return
        # Freeze: no more stage-k acks once our set is reported.  Unless
        # the gather is our own we now wait on src's ENDSTAGE, exactly
        # like a member that deferred its close.
        if not self._frozen:
            self._frozen = True
            self._deferred_at = self.now
            self._watch()
        self.channel.send(src, GATHER_OK_PORT, (stage, tuple(self._acked)))

    def _on_gather_ok(self, src: str, payload: tuple) -> None:
        stage, acked = payload
        if stage != self._stage:
            return
        collection = self._gathering.get(stage)
        if collection is None:
            return
        collection[src] = acked
        members = self.group_provider()
        needed = len(members) - self._f()
        if len(collection) < needed:
            return
        # Qualifying set: present in >= quorum - f of the collected sets.
        threshold = self.ack_quorum() - self._f()
        counts = Counter(mid for acked in collection.values() for mid in acked)
        qualifying = sorted(mid for mid, c in counts.items() if c >= threshold)
        del self._gathering[stage]
        self._abcast_endstage(qualifying, "gather")

    def _on_adeliver(self, message: AppMessage) -> None:
        stage = self._stage
        super()._on_adeliver(message)
        if self._stage != stage:
            self._gathering.pop(stage, None)
