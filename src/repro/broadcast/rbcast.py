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
``relay_policy="lazy"`` members do not relay on first receipt; instead,
the moment the failure detector suspects a member, everybody asks every
unsuspected peer for what it holds that they lack (the NACK below), and
relays on receipt while the origin stays suspected.  The crash-tolerance
argument is unchanged: if any correct member delivered ``m`` and the
origin crashed before completing its sends, the origin is eventually
suspected at every correct member, each of which then asks the member
that holds ``m`` — the relay is paid exactly when it is needed.
Suspicion comes from the FD ``monitor`` the component is built with: it
reads ``monitor.suspects`` and subscribes :meth:`peer_suspected` to the
edges.

**Dissemination overlay** (``dissemination="ring"``): under flood — the
default — the origin unicasts every packet to all n−1 members, so the
origin's NIC is the throughput ceiling.  Over the ring the origin
instead sends each *body* only to the member who orders and its chain
successor, and every member forwards it at most once on first receipt
along the chain (``repro.net.overlay``): O(1) payload sends per node
per broadcast instead of O(n) at the origin, in the spirit of Ring
Paxos's pipelined dissemination.  **Routing is by size**
(:data:`DIRECT_MAX_BYTES`): what orders — a DECIDE, an id-only ENDSTAGE
— is a few dozen bytes and follows the flood rule whatever the overlay,
one direct leg from the origin to every member, relayed only as the
relay policy says (Ring Paxos again: values reach the coordinator
first, decisions go straight to everyone; a member that learns an id
ahead of its body waits for it below a-delivery).  The rule reads the
packet alone, so origin and receivers agree with no wire field.
*Caveat:* one origin's packets keep their order only within one route —
a sender mixing sizes across the constant can see its small packet
overtake its earlier large one (sender FIFO is not promised over an
overlay: ``ScenarioConfig.fifo_checkable``).  The overlay is view-aware
(hops are recomputed against the current membership at every send, so
view installs and reincarnations re-shape the routing) and
failure-repairing: a suspected downstream member is routed *around* —
its forwarding duties are adopted by its predecessor (counted as
``rb.reroutes``) while it still gets a best-effort direct copy — and
the suspicion-edge NACK is the crash-tolerance backstop: it asks for
any origin's packets, not just the suspect's own, since a crashed
*forwarder* strands other origins' packets.

**Loss repair** is decided here and nowhere else.  Every member retains
every delivered, not-yet-stable packet — its own included, whatever the
policy — in one store with one GC rule (stable at every current member).
One path reads it, the *pull*: :meth:`ReliableBroadcast.request_repair`
sends our watermark vector on the ``rb.nack`` port and the peer re-sends
every retained packet above it on the ordinary ``rb`` port.  Three
things ask: a suspicion edge, above, asks every unsuspected peer; the
stability tick asks for a mark that peers reported a whole interval ago
and that we still lack (a packet rbcast by a member that had not yet
installed the view we joined in, or stranded at an overlay forwarder
that rejoined behind its snapshot fence); atomic broadcast asks while a
decided id's body is missing.  The receiver detects and asks, as in
Ring Paxos: the sender's view of our marks is always stale.

The component is *tag-multiplexed*: several upper layers (consensus
decisions, atomic broadcast payloads, generic broadcast checks) share one
rbcast component, each registering its own tag handler.

**Stability & garbage collection** (the role of Ensemble's ``stable``
component, Section 2.2 of the paper).  Packet ids come from a private
per-component sequence (origin tagged ``pid!rb``), so they are gap-free
per origin and a per-origin *contiguous* delivery watermark plus the set
of seqs delivered out of order above it says exactly what was delivered:
that pair is the duplicate suppression, there is no second record.  Each
process gossips its watermarks over the reliable (FIFO) channels; once
every current member has covered a packet id, the packet is *stable* —
no copy of it can ever arrive again behind the gossip on any FIFO link —
and its retained copy is pruned.  The gossip is
delta-encoded: a member is sent only the origins whose watermark moved
since the last send to it (and nothing at all when the vector is
unchanged), after one initial full snapshot.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Callable

from repro.net.message import MsgId
from repro.net.overlay import POLICIES, DisseminationOverlay
from repro.net.reliable import ReliableChannel
from repro.net.wire import payload_size
from repro.sim.process import Component, Process

if TYPE_CHECKING:  # annotation only; importing it here closes a cycle through sim
    from repro.fd.heartbeat import Monitor

PORT = "rb"
STABILITY_PORT = "rb.stable"
NACK_PORT = "rb.nack"
RELAY_POLICIES = ("eager", "lazy")
#: Largest payload (``wire.payload_size``, bytes) that skips the overlay.
#: What orders is small: a DECIDE is 52 B, an id-only ENDSTAGE 58 B plus
#: 23 B per id it names (eight ids go direct, a longer tail takes the
#: ring like a body).  What is worth balancing is not: a CHK is 4 146 B
#: with a 4 KiB payload — and 114 B with a 64 B one, direct as well:
#: n − 1 copies of 256 B load the origin's link like a quarter of a body.
DIRECT_MAX_BYTES = 256

DeliverFn = Callable[[str, Any, MsgId], None]
GroupProvider = Callable[[], list[str]]


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
        monitor: Monitor | None = None,
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
        #: Ring payload routing; None = classic flood dissemination.
        self.overlay = None if dissemination == "flood" else DisseminationOverlay()
        #: The stack's small-timeout FD monitor: its suspect set is read
        #: by the forward rule and the hole detection, its edges NACK.
        #: None (a bare rbcast) suspects nobody.
        self.monitor = monitor
        if monitor is not None:
            monitor.subscribe(self.peer_suspected)
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
        #: The one retained store (``relay=True``): every delivered,
        #: not-yet-stable packet per origin, our own included: the
        #: material of every answer to a NACK, pruned as packets turn
        #: stable.
        self._retained: dict[str, dict[int, tuple]] = {}
        #: Highest contiguous seq delivered per origin (-1 = none) and the
        #: seqs delivered out of order above it.  Together they are the
        #: duplicate suppression: a seq was delivered iff it is at or
        #: below the mark or in the set.
        self._watermarks: dict[str, int] = {}
        self._above: dict[str, set[int]] = {}
        #: Latest watermark vector reported by each member.
        self._reported: dict[str, dict[str, int]] = {}
        #: What we last gossiped to each member (delta encoding).
        self._gossiped: dict[str, dict[str, int]] = {}
        #: Hole detection: the highest mark per origin that unsuspected
        #: peers had reported as of the previous stability tick (to tell
        #: "stranded" from "in flight"), and the holder-rotation position.
        self._nack_prev: dict[str, int] = {}
        self._nack_turn = 0
        #: Stable floor per origin: everything at or below it is pruned.
        #: Never above our own watermark (our report is a term of the min).
        self._pruned: dict[str, int] = {}
        counters = self.world.metrics.counters
        self._count_broadcasts = counters.cell("rb.broadcasts")
        self._count_delivered = counters.cell("rb.delivered")
        self._count_relayed = counters.cell("rb.relayed")
        self._count_forwarded = counters.cell("rb.forwarded")
        self._count_reroutes = counters.cell("rb.reroutes")
        self._count_nacks = counters.cell("rb.nacks_sent")
        #: Packets re-sent in answer to a NACK (the counter keeps the
        #: name the benchmark reads).
        self._count_repairs = counters.cell("rb.overlay_repairs")
        self._count_pruned = counters.cell("rb.stable_pruned")
        self.register_port(PORT, self._on_message)
        self.register_port(STABILITY_PORT, self._on_stability)
        self.register_port(NACK_PORT, self._on_nack)

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
        self._count_broadcasts.n += 1
        packet = (mid, self.pid, tag, payload)
        members = self.group_provider()
        if not self._takes_overlay(payload):
            targets = members
        else:
            # Ring: self-deliver (which also retains our own packet,
            # the repair material should our successor crash before
            # forwarding) plus the overlay's next hops only — the origin's
            # O(n) unicast burst becomes O(1).
            hops, reroutes = self.overlay.next_hops(
                members, self.pid, self.pid, self._suspects()
            )
            if reroutes:
                self._count_reroutes.n += reroutes
            targets = ([self.pid] if self.pid in members else []) + hops
        self._send(packet, f"rb:{tag}", targets)
        return mid

    def _send(self, packet: tuple, span: str, targets: list[str]) -> None:
        """Put ``packet`` on the wire, attributed to its tag's layer."""
        layer = self._layer_of(packet[2])
        self.spans.wrap(
            self.pid, layer, span, "send", self.now, packet[0],
            self.channel.send_to_all, targets, PORT, packet, layer=layer,
        )

    # Alias so rbcast satisfies the TaggedBroadcast protocol used by
    # layers that can sit on either rbcast or view-synchronous broadcast.
    def bcast(self, tag: str, payload: Any) -> MsgId:
        return self.rbcast(tag, payload)

    def _suspects(self) -> set:
        return set() if self.monitor is None else self.monitor.suspects

    def _takes_overlay(self, payload: Any) -> bool:
        """The routing rule, read alike by origin and receivers: a body
        takes the overlay, what orders takes one direct leg."""
        return self.overlay is not None and payload_size(payload) > DIRECT_MAX_BYTES

    def _forward_targets(self, packet: tuple, src: str) -> list[str]:
        """The one forward rule: whom a first receipt is passed on to.

        Overlay: the next hops along the ring (every member forwards
        a packet at most once — this runs behind the dedup check).
        Flood: everyone under the eager policy, everyone while the origin
        is suspected under the lazy one, otherwise nobody.
        """
        opid = origin_pid(packet[0].sender)
        if not self._takes_overlay(packet[3]):
            if src == self.pid:
                return []  # self-delivery of our own broadcast
            if self.relay_policy == "lazy" and opid not in self._suspects():
                return []
            peers = [q for q in self.group_provider() if q != self.pid]
            if peers:
                self._count_relayed.n += 1
            return peers
        if opid == self.pid:
            return []  # our own packet looped back via self-delivery
        hops, reroutes = self.overlay.next_hops(
            self.group_provider(), opid, self.pid, self._suspects()
        )
        if reroutes:
            self._count_reroutes.n += reroutes
        if hops:
            self._count_forwarded.n += 1
        return hops

    def _on_message(self, src: str, packet: tuple) -> None:
        mid, origin, tag, payload = packet
        sender, seq = mid.sender, mid.seq
        above = self._above.get(sender)
        if above is None:
            above = self._above[sender] = set()
        mark = self._watermarks.get(sender, -1)
        if seq <= mark or seq in above:
            return
        above.add(seq)
        self._watermarks[sender] = self._absorb_run(mark, above)
        if self.relay:
            # Retained until stable: the material of every answer to a NACK.
            self._retained.setdefault(sender, {})[seq] = packet
            targets = self._forward_targets(packet, src)
            if targets:
                self._send(packet, "rb:forward", targets)
        handler = self._handlers.get(tag)
        if handler is None:
            self.trace("unhandled_tag", tag=tag, mid=str(mid))
            return
        self._count_delivered.n += 1
        handler(origin, payload, mid)

    def peer_suspected(self, pid: str) -> None:
        """Suspicion edge from the FD: ask every unsuspected peer for what
        it retains above our marks (the crash-tolerance step of lazy relay
        and of the overlay).

        A packet the suspect originated, or was forwarding when it
        crashed, may have reached some members and not us; whoever has
        it answers the NACK.  Packets of the suspect still in flight are
        relayed on receipt by :meth:`_forward_targets`.  No-op under the
        eager flood policy — everything was already relayed on first
        receipt.
        """
        if not self.relay:
            return
        if self.overlay is None and self.relay_policy == "eager":
            return
        suspects = self._suspects()
        for peer in self.group_provider():
            if peer != self.pid and peer not in suspects:
                self.request_repair(peer)

    # ------------------------------------------------------------------
    # Stability (Ensemble's `stable` component, new-architecture style)
    # ------------------------------------------------------------------
    @staticmethod
    def _absorb_run(mark: int, above: set[int]) -> int:
        """Move ``mark`` through the contiguous run of ``above`` that starts
        right after it, consuming the run; returns the new mark."""
        while mark + 1 in above:
            mark += 1
            above.discard(mark)
        return mark

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
            self._nack_stranded(members)
        # Re-check pruning locally: reports are delta-encoded and go
        # silent once watermarks stop changing, so a view change that
        # removes the last laggard after the last report (then the group
        # goes quiet) would otherwise defer collection forever.
        self._prune()
        self.schedule(self.stability_interval, self._stability_tick)

    def _nack_stranded(self, members: list[str]) -> None:
        """Receiver-side hole detection: ask for what the gossip says we lack.

        A packet can miss us with no suspicion edge to ask for it: it was
        rbcast by a member that had not yet installed the view we joined
        in (never addressed to us), or it was in flight *through* an
        overlay forwarder that crashed and rejoined behind a snapshot
        fence before anyone suspected it.  The watermark gossip exposes
        the hole from our side: a mark some unsuspected peer had already
        reported at our previous tick, and that we still lack one whole
        interval later, is stranded rather than in flight.  One NACK per
        tick; the peer asked rotates, because a peer that installed our
        view late may have pruned the packet already.
        """
        suspects = self._suspects()
        peers = [m for m in members if m != self.pid and m not in suspects]
        prev, self._nack_prev = self._nack_prev, {}
        for peer in peers:
            for origin, mark in self._reported.get(peer, {}).items():
                if mark > self._nack_prev.get(origin, -1):
                    self._nack_prev[origin] = mark
        marks = self._watermarks
        if peers and any(mark > marks.get(origin, -1) for origin, mark in prev.items()):
            self._nack_turn += 1
            self.request_repair(peers[self._nack_turn % len(peers)])

    def request_repair(self, peer: str) -> None:
        """NACK: ask ``peer`` to re-send what it retains above our marks.

        The one repair path.  The answer arrives as ordinary packets on
        the ``rb`` port, so dedup, forwarding and the tag handlers need no
        second entry point.
        """
        self._count_nacks.n += 1
        self.trace("nack", peer=peer)
        self.channel.send(peer, NACK_PORT, dict(self._watermarks))

    def _on_nack(self, src: str, marks: dict[str, int]) -> None:
        resent = 0
        for origin, packets in self._retained.items():
            have = marks.get(origin, -1)
            for seq in sorted(packets):
                if seq > have:
                    self._send(packets[seq], "rb:repair", [src])
                    resent += 1
        if resent:
            self._count_repairs.n += resent
            self.trace("repair", peer=src, packets=resent)

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
        pruned = 0
        origins = set().union(*(r.keys() for r in reports)) if reports else set()
        for origin in origins:
            stable_up_to = min(r.get(origin, -1) for r in reports)
            already = self._pruned.get(origin, -1)
            if stable_up_to <= already:
                continue
            self._pruned[origin] = stable_up_to
            # Seqs are gap-free per origin and the range lies at or below
            # our own watermark: we delivered every one of them.
            pruned += stable_up_to - already
            retained = self._retained.get(origin)
            if retained:
                for seq in range(already + 1, stable_up_to + 1):
                    retained.pop(seq, None)
                if not retained:
                    del self._retained[origin]
        if pruned:
            self._count_pruned.n += pruned
            self.trace("pruned", count=pruned)

    def seen_size(self) -> int:
        """Packets delivered and not yet stable: the marks' height above
        the stable floors plus the out-of-order seqs."""
        pruned = self._pruned
        return sum(
            mark - pruned.get(origin, -1) for origin, mark in self._watermarks.items()
        ) + sum(len(above) for above in self._above.values())

    def retained_size(self) -> int:
        """Delivered, not-yet-stable packets held as repair material."""
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
                # What we hold out of order at or below the new mark is
                # covered by it; a run that now touches it is absorbed.
                above = self._above.get(origin, set())
                above.difference_update([seq for seq in above if seq <= mark])
                self._watermarks[origin] = self._absorb_run(mark, above)
            # Everything at or below the transferred watermark was
            # delivered before our snapshot position; late copies must
            # be ignored, and we will never deliver them ourselves.
            if mark > self._pruned.get(origin, -1):
                self._pruned[origin] = mark
