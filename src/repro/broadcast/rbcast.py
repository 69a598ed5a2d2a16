"""Reliable broadcast over reliable channels, with stability tracking.

Classic relay-on-first-receipt algorithm: the sender sends the message to
every group member over reliable channels; each member relays it to the
whole group on first receipt, then delivers.  With reliable channels this
gives (uniform, for the members that stay in the group) reliable
broadcast: if any process delivers ``m``, every correct member eventually
delivers ``m``.

**Relay policy**: the eager relay makes every broadcast cost O(n²)
datagrams even in the common, failure-free case — yet the relay is only
*needed* when the origin crashes mid-broadcast.  Under
``relay_policy="lazy"`` members do not relay on first receipt; instead
each member retains every not-yet-stable packet and floods the retained
packets of an origin the moment the failure detector suspects it (and
relays on receipt while the origin stays suspected).  The crash-tolerance
argument is unchanged: if any correct member delivered ``m`` and the
origin crashed before completing its sends, the origin is eventually
suspected at that member, which then relays ``m`` to everyone — the
eager flood is restored exactly when it pays for itself.  Suspicion is
wired in through ``suspicion_provider`` (current suspect set) and
:meth:`peer_suspected` (edge trigger), both fed by the stack's FD
monitor.

**Dissemination overlay** (``dissemination="ring" | "tree"``): under
flood — the default — the origin unicasts every packet to all n−1
members, so the origin's NIC is the throughput ceiling.  With an
overlay the origin instead sends each packet only to its deterministic
successor (ring) or its ≤ k tree children, and every member forwards
the packet exactly once on first receipt along the same structure
(``repro.net.overlay``): O(1)/O(k) payload sends per node per broadcast
instead of O(n) at the origin, in the spirit of Ring Paxos's pipelined
dissemination.  The overlay is view-aware (hops are recomputed against
the current membership at every send, so view installs and
reincarnations re-shape the routing automatically) and
failure-repairing: a suspected downstream member is routed *around* —
its forwarding duties are adopted by its predecessor (counted as
``rb.reroutes``) while it still gets a best-effort direct copy — and a
suspicion edge floods **all** retained packets (any origin's, not just
the suspect's own: a crashed *forwarder* strands other origins'
packets) as the crash-tolerance backstop.  Under an overlay every
member retains every not-yet-stable packet, exactly like the lazy
relay, so the flood material is always at hand and is GC'd by the same
stability machinery.

The component is *tag-multiplexed*: several upper layers (consensus
decisions, atomic broadcast payloads, generic broadcast checks) share one
rbcast component, each registering its own tag handler.

**Stability & garbage collection** (the role of Ensemble's ``stable``
component, Section 2.2 of the paper): every broadcast consumes an entry
in the duplicate-suppression set.  Each process therefore gossips, over
the reliable (FIFO) channels, its per-origin *contiguous* delivery
watermark; once every current member has covered a packet id, the packet
is *stable* — no copy of it can ever arrive again behind the gossip on
any FIFO link — and its dedup entry is pruned.  Packet ids come from a
private per-component sequence (origin tagged ``pid!rb``), so they are
gap-free per origin and watermarks are well defined.  The gossip is
delta-encoded: a member is sent only the origins whose watermark moved
since the last send to it (and nothing at all when the vector is
unchanged), after one initial full snapshot.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable

from repro.net.message import MsgId
from repro.net.overlay import POLICIES, DisseminationOverlay
from repro.net.reliable import ReliableChannel
from repro.sim.process import Component, Process

PORT = "rb"
STABILITY_PORT = "rb.stable"
RELAY_POLICIES = ("eager", "lazy")

DeliverFn = Callable[[str, Any, MsgId], None]
GroupProvider = Callable[[], list[str]]
SuspicionProvider = Callable[[], set]


def origin_pid(origin: str) -> str:
    """The process id behind an rbcast origin tag (``p00~1!rb`` → ``p00``)."""
    return origin.split("!", 1)[0].split("~", 1)[0]


class ReliableBroadcast(Component):
    """Tag-multiplexed reliable broadcast with stability-based GC."""

    def __init__(
        self,
        process: Process,
        channel: ReliableChannel,
        group_provider: GroupProvider,
        relay: bool = True,
        stability_interval: float | None = 500.0,
        relay_policy: str = "eager",
        suspicion_provider: SuspicionProvider | None = None,
        dissemination: str = "flood",
    ) -> None:
        super().__init__(process, "rb")
        if relay_policy not in RELAY_POLICIES:
            raise ValueError(f"unknown relay_policy {relay_policy!r}")
        if dissemination not in POLICIES:
            raise ValueError(f"unknown dissemination {dissemination!r}")
        self.channel = channel
        self.group_provider = group_provider
        self.relay = relay
        self.relay_policy = relay_policy
        self.dissemination = dissemination
        #: Ring/tree payload routing; None = classic flood dissemination.
        self.overlay = (
            None
            if dissemination == "flood"
            else DisseminationOverlay(dissemination)
        )
        #: Current suspect set of the stack's FD monitor (pids).  Only
        #: consulted under the lazy policy; assigned after construction
        #: by the stack wiring (the monitor does not exist yet here).
        self.suspicion_provider = suspicion_provider
        #: Optional retention pin (assigned after construction, like the
        #: suspicion provider): a callable returning ``{origin: seq}``
        #: floors below which :meth:`_prune` must NOT prune.  Id-only
        #: atomic broadcast pins packets whose ids ride a proposed-but-
        #: undecided instance — they are the relay/repair material for
        #: any member that decides before dissemination reaches it.
        self.retention_pin: Callable[[], dict[str, int]] | None = None
        self.stability_interval = stability_interval
        # Private gap-free id space: origin is "<pid>!rb" for the first
        # incarnation.  A recovered incarnation restarts its counter at
        # zero, so it gets a fresh origin ("<pid>~<inc>!rb") — otherwise
        # its packets would collide with (and be dropped as duplicates
        # of) the dead incarnation's.
        if process.incarnation:
            self._origin = f"{process.pid}~{process.incarnation}!rb"
        else:
            self._origin = f"{process.pid}!rb"
        self._next_seq = itertools.count()
        self._handlers: dict[str, DeliverFn] = {}
        #: Layer attribution per tag for the ``net.sent.<layer>``
        #: counters: an rbcast packet is protocol traffic of whichever
        #: layer registered its tag (abcast payloads, consensus
        #: decisions, gbcast checks, ...), not of rbcast itself.
        self._tag_layers: dict[str, str] = {}
        #: Duplicate-suppression set, indexed per origin so pruning a
        #: stability range is O(entries pruned) instead of a full-set
        #: rebuild; ``_seen_count`` keeps :meth:`seen_size` O(1).
        self._seen: dict[str, set[int]] = {}
        self._seen_count = 0
        #: Lazy policy only: retained packets per origin, pruned with the
        #: dedup entries — the relay material for a later suspicion.
        self._retained: dict[str, dict[int, tuple]] = {}
        #: Highest contiguous seq delivered per origin (-1 = none).
        self._watermarks: dict[str, int] = {}
        #: Out-of-order seqs above the watermark, per origin.
        self._above: dict[str, set[int]] = {}
        #: Latest watermark vector reported by each member.
        self._reported: dict[str, dict[str, int]] = {}
        #: What we last gossiped to each member (delta encoding).
        self._gossiped: dict[str, dict[str, int]] = {}
        #: Overlay anti-entropy: each member's reported vector as of the
        #: previous stability tick (to tell "stranded" from "in flight")
        #: and the (member, origin) marks already repaired once.
        self._repair_prev: dict[str, dict[str, int]] = {}
        self._repaired_at: dict[tuple[str, str], int] = {}
        #: Everything at or below this per-origin seq has been pruned.
        self._pruned: dict[str, int] = {}
        counters = self.world.metrics.counters
        self._inc_broadcasts = counters.handle("rb.broadcasts")
        self._inc_delivered = counters.handle("rb.delivered")
        self._inc_relayed = counters.handle("rb.relayed")
        self._inc_forwarded = counters.handle("rb.forwarded")
        self._inc_reroutes = counters.handle("rb.reroutes")
        self._inc_suspect_floods = counters.handle("rb.suspect_floods")
        self._inc_repairs = counters.handle("rb.overlay_repairs")
        self._inc_pruned = counters.handle("rb.stable_pruned")
        self._inc_pin_deferred = counters.handle("rb.prune_pinned")
        self.register_port(PORT, self._on_message)
        self.register_port(STABILITY_PORT, self._on_stability)

    def start(self) -> None:
        if self.stability_interval is not None:
            self.schedule(self.stability_interval, self._stability_tick)

    def register(self, tag: str, handler: DeliverFn, layer: str | None = None) -> None:
        if tag in self._handlers:
            raise ValueError(f"duplicate rbcast tag {tag!r} on {self.pid}")
        self._handlers[tag] = handler
        if layer is not None:
            self._tag_layers[tag] = layer

    def _layer_of(self, tag: str) -> str:
        return self._tag_layers.get(tag, "rbcast")

    def rbcast(self, tag: str, payload: Any) -> MsgId:
        """Reliably broadcast ``payload`` to the current group (incl. self)."""
        mid = MsgId(self._origin, next(self._next_seq))
        self._inc_broadcasts()
        packet = (mid, self.pid, tag, payload)
        layer = self._layer_of(tag)
        members = self.group_provider()
        if self.overlay is None:
            targets = members
        else:
            # Ring/tree: self-deliver plus the overlay's next hops only —
            # the origin's O(n) unicast burst becomes O(1)/O(k).  Retain
            # our own packet immediately: it is the flood material should
            # our successor crash before forwarding.
            suspects = self._suspects()
            hops, reroutes = self.overlay.next_hops(members, self.pid, self.pid, suspects)
            if reroutes:
                self._inc_reroutes(reroutes)
            self._retained.setdefault(mid.sender, {})[mid.seq] = packet
            targets = ([self.pid] if self.pid in members else []) + hops
        self.spans.wrap(
            self.pid, layer, f"rb:{tag}", "send", self.now, mid,
            self.channel.send_to_all,
            targets, PORT, packet, layer=layer,
        )
        return mid

    # Alias so rbcast satisfies the TaggedBroadcast protocol used by
    # layers that can sit on either rbcast or view-synchronous broadcast.
    def bcast(self, tag: str, payload: Any) -> MsgId:
        return self.rbcast(tag, payload)

    def _suspects(self) -> set:
        if self.suspicion_provider is None:
            return set()
        return self.suspicion_provider()

    def _should_relay(self, origin: str) -> bool:
        if self.relay_policy == "eager":
            return True
        return origin_pid(origin) in self._suspects()

    def _forward(self, packet: tuple) -> None:
        """Overlay forwarding: pass the packet one hop along the ring/tree.

        Every member forwards a packet at most once (this runs behind
        the dedup check) and retains it until stability — the retained
        copy is the suspicion-flood backstop's material.
        """
        mid, _origin, tag, _payload = packet
        self._retained.setdefault(mid.sender, {})[mid.seq] = packet
        opid = origin_pid(mid.sender)
        if opid == self.pid:
            return  # our own packet looped back via self-delivery
        hops, reroutes = self.overlay.next_hops(
            self.group_provider(), opid, self.pid, self._suspects()
        )
        if reroutes:
            self._inc_reroutes(reroutes)
        if not hops:
            return  # end of the chain / leaf of the tree
        self._inc_forwarded()
        layer = self._layer_of(tag)
        self.spans.wrap(
            self.pid, layer, "rb:forward", "send", self.now, mid,
            self.channel.send_to_all, hops, PORT, packet, layer=layer,
        )

    def _on_message(self, src: str, packet: tuple) -> None:
        mid, origin, tag, payload = packet
        sender = mid.sender
        seen = self._seen.get(sender)
        if seen is None:
            seen = self._seen[sender] = set()
        if mid.seq in seen or mid.seq <= self._pruned.get(sender, -1):
            return
        seen.add(mid.seq)
        self._seen_count += 1
        self._advance_watermark(mid)
        if self.overlay is not None and self.relay:
            self._forward(packet)
        elif self.relay and src != self.pid:
            if self.relay_policy == "lazy":
                # Retain for a potential suspicion-triggered flood; the
                # entry is pruned together with its dedup entry.
                self._retained.setdefault(sender, {})[mid.seq] = packet
            if self._should_relay(sender):
                # Relay on first receipt so delivery survives the origin's
                # crash (eager policy: always; lazy: suspected origins only).
                self._inc_relayed()
                self.spans.wrap(
                    self.pid, self._layer_of(tag), "rb:relay", "send", self.now, mid,
                    self.channel.send_to_all,
                    [q for q in self.group_provider() if q != self.pid],
                    PORT,
                    packet,
                    layer=self._layer_of(tag),
                )
        handler = self._handlers.get(tag)
        if handler is None:
            self.trace("unhandled_tag", tag=tag, mid=str(mid))
            return
        self._inc_delivered()
        handler(origin, payload, mid)

    def peer_suspected(self, pid: str) -> None:
        """Suspicion edge from the FD: flood retained packets (the
        crash-tolerance step of lazy relay and of the overlays).

        Lazy flood relay: flood the suspected process's own origins —
        only the origin's crash can leave its packets under-delivered.
        Overlay routing: flood **every** retained packet regardless of
        origin — a crashed *forwarder* strands whatever packets were
        mid-route through it, whoever originated them.  Dedup makes the
        redundant copies harmless.

        No-op under the eager flood policy — everything was already
        relayed on first receipt.
        """
        if not self.relay:
            return
        if self.overlay is None and self.relay_policy == "eager":
            return
        peers = [q for q in self.group_provider() if q != self.pid]
        if not peers:
            return
        flooded = 0
        for origin, packets in self._retained.items():
            if self.overlay is None and origin_pid(origin) != pid:
                continue
            for seq in sorted(packets):
                packet = packets[seq]
                self.spans.wrap(
                    self.pid, self._layer_of(packet[2]), "rb:flood", "send", self.now,
                    packet[0],
                    self.channel.send_to_all, peers, PORT, packet,
                    layer=self._layer_of(packet[2]),
                )
                flooded += 1
        if flooded:
            self._inc_suspect_floods(flooded)
            self.trace("suspect_flood", peer=pid, packets=flooded)

    # ------------------------------------------------------------------
    # Stability (Ensemble's `stable` component, new-architecture style)
    # ------------------------------------------------------------------
    def _advance_watermark(self, mid: MsgId) -> None:
        origin = mid.sender
        above = self._above.setdefault(origin, set())
        above.add(mid.seq)
        mark = self._watermarks.get(origin, -1)
        while mark + 1 in above:
            mark += 1
            above.discard(mark)
        self._watermarks[origin] = mark

    def _stability_tick(self) -> None:
        members = self.group_provider()
        if self.pid in members:
            marks = self._watermarks
            for member in members:
                last = self._gossiped.get(member)
                if last is None:
                    # First contact (or a member we forgot): full vector,
                    # even when empty — an empty report still unblocks
                    # the receiver's everyone-has-reported prune gate.
                    delta = dict(marks)
                elif last == marks:
                    continue  # nothing changed since the last send
                else:
                    delta = {
                        origin: mark
                        for origin, mark in marks.items()
                        if last.get(origin, -1) != mark
                    }
                    if not delta:
                        continue
                self._gossiped[member] = dict(marks)
                self.channel.send(member, STABILITY_PORT, delta)
            # Members that left are forgotten so a rejoin gets a full
            # snapshot again.
            for gone in [m for m in self._gossiped if m not in members]:
                del self._gossiped[gone]
            if self.overlay is not None:
                self._overlay_repair(members)
        # Re-check pruning locally: reports are delta-encoded and go
        # silent once watermarks stop changing, so a retention pin
        # released after the last report (its instance decided, then the
        # group went quiet) would otherwise defer collection forever.
        self._prune()
        self.schedule(self.stability_interval, self._stability_tick)

    def _overlay_repair(self, members: list[str]) -> None:
        """Stability-report anti-entropy: the overlay's silent-stall backstop.

        The suspicion flood only fires on an FD *edge*.  A chain can also
        strand packets with no suspicion at all: a member crashes and
        reincarnates before anyone suspects it, and its state-transfer
        snapshot fences (``install_snapshot``) the very packets that were
        in flight *through* it — the rejoiner dedups them instead of
        forwarding, starving everyone downstream forever.  The watermark
        gossip already exposes the stall: the starved member's reported
        mark freezes below ours.  So on each stability tick, re-send the
        retained packets a peer provably lacks — but only when its mark
        for that origin is unchanged since the previous tick (in-flight
        traffic heals itself) and at most once per stalled mark (reliable
        channels make one repair sufficient).
        """
        for member in members:
            if member == self.pid:
                continue
            reported = self._reported.get(member)
            if reported is None:
                continue
            prev = self._repair_prev.get(member)
            self._repair_prev[member] = dict(reported)
            if prev is None:
                continue  # first report seen: grace tick before repairing
            for origin, packets in self._retained.items():
                theirs = reported.get(origin, -1)
                if theirs >= self._watermarks.get(origin, -1):
                    continue
                if prev.get(origin, -1) != theirs:
                    continue  # mark still moving: in flight, not stranded
                if self._repaired_at.get((member, origin)) == theirs:
                    continue
                self._repaired_at[(member, origin)] = theirs
                resent = 0
                for seq in sorted(packets):
                    if seq <= theirs:
                        continue
                    packet = packets[seq]
                    self.spans.wrap(
                        self.pid, self._layer_of(packet[2]), "rb:repair", "send",
                        self.now, packet[0],
                        self.channel.send, member, PORT, packet,
                        layer=self._layer_of(packet[2]),
                    )
                    resent += 1
                if resent:
                    self._inc_repairs(resent)
                    self.trace("overlay_repair", peer=member, origin=origin, packets=resent)

    def _on_stability(self, src: str, watermarks: dict[str, int]) -> None:
        # Delta-encoded: merge into (not replace) the sender's vector.
        self._reported.setdefault(src, {}).update(watermarks)
        self._prune()

    def _prune(self) -> None:
        members = set(self.group_provider())
        if not members or self.pid not in members:
            return
        reports = [self._reported.get(m) for m in members]
        if any(r is None for r in reports):
            return  # not everyone has reported yet
        pins = self.retention_pin() if self.retention_pin is not None else {}
        pruned = 0
        deferred = 0
        origins = set().union(*(r.keys() for r in reports)) if reports else set()
        for origin in origins:
            stable_up_to = min(r.get(origin, -1) for r in reports)
            pin = pins.get(origin)
            if pin is not None and pin <= stable_up_to:
                # A stable-but-pinned packet: its id rides an undecided
                # abcast instance, so keep it (and everything after it —
                # the pruned floor must stay contiguous) until the
                # instance resolves; the next stability tick retries.
                deferred += stable_up_to - pin + 1
                stable_up_to = pin - 1
            already = self._pruned.get(origin, -1)
            if stable_up_to <= already:
                continue
            self._pruned[origin] = stable_up_to
            seen = self._seen.get(origin)
            if seen:
                # Seqs are gap-free per origin, so walking the newly
                # stable range discards exactly the pruned entries —
                # O(entries pruned), not a full-set rebuild.
                retained = self._retained.get(origin)
                for seq in range(already + 1, stable_up_to + 1):
                    if seq in seen:
                        seen.discard(seq)
                        pruned += 1
                    if retained is not None:
                        retained.pop(seq, None)
                if not seen:
                    del self._seen[origin]
                if retained is not None and not retained:
                    del self._retained[origin]
        if pruned:
            self._seen_count -= pruned
            self._inc_pruned(pruned)
            self.trace("pruned", count=pruned)
        if deferred:
            self._inc_pin_deferred(deferred)

    def seen_size(self) -> int:
        """Current size of the duplicate-suppression set (GC'd), O(1)."""
        return self._seen_count

    def retained_size(self) -> int:
        """Packets retained for suspicion-triggered relay (lazy policy)."""
        return sum(len(p) for p in self._retained.values())

    # ------------------------------------------------------------------
    # State transfer support (for joiners / recovered incarnations)
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, dict[str, int]]:
        """Watermarks a joiner should start from.

        Without this, a joiner reports ``-1`` for every pre-existing
        origin forever and stability pruning stalls group-wide.
        """
        return {"watermarks": dict(self._watermarks)}

    def install_snapshot(self, snapshot: dict[str, dict[str, int]]) -> None:
        marks = snapshot["watermarks"]
        for origin, mark in marks.items():
            if mark > self._watermarks.get(origin, -1):
                self._watermarks[origin] = mark
            # Everything at or below the transferred watermark was
            # delivered before our snapshot position; late copies must
            # be ignored, and we will never deliver them ourselves.
            if mark > self._pruned.get(origin, -1):
                self._pruned[origin] = mark
