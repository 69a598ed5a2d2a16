"""Reliable channel component (Section 3.3.1 of the paper).

Guarantees: if a correct process ``p`` sends ``m`` to a correct process
``q``, then ``q`` eventually receives ``m`` — implemented with sequence
numbers, cumulative acknowledgements and timeout-driven retransmission
over the unreliable transport (the paper implements it over TCP [15]).
Delivery is FIFO per sender, like TCP.

Every datagram of the channel — DATA, BATCH, ACK, GAP, first
transmission or re-send — opens with the same four-field header: its
kind, the sender's incarnation, the incarnation it believes the peer to
run and the cumulative ACK for the reverse direction (nothing about
liveness: the failure detector reads every datagram at the transport's
tap).  So acknowledgements ride the data going back: a consensus ACK, a
gbcast ack or a DECIDE returning along a link acknowledges what came
down it.  With coalescing on, an ACK the channel owes waits up to
``ACK_HOLD`` ms for such a datagram and is sent as a pure ``ACK`` only
if none went — or when the failure detector's keep-alive to that peer
falls due first, which goes out as this ACK (:meth:`flush_toward`);
its hold timer is cancelled the moment it rides one.  Data is never
flushed early for an ACK's sake (that buys latency with datagrams).
Without coalescing every arrival is still ACKed
immediately.  A piggybacked ACK goes through the same ``_on_ack`` as a
pure one — the estimator, Karn's rule and the GAP notice below cannot
tell them apart — and its bytes are charged to ``rc``, not to the layer
of the data it rides.

Retransmission follows TCP's discipline (RFC 6298) and nothing more.
Every unacknowledged segment remembers when it last left and how often;
every peer has a round-trip estimator fed by ACKs (``SRTT``/``RTTVAR``;
Karn's rule: only a segment transmitted exactly once is sampled, and
the receiver's ACK hold is simply part of the sample) and a
retransmission timeout ``RTO = srtt + max(4·rttvar, RTO_MIN)``, at most
``RTO_MAX``.  A segment is re-sent only once it has been out for a whole
RTO — selectively, by age: k segments lost from one window fall due at
the same expiry and heal together, a segment whose own RTO has not run
out is left alone.  Each expiry that re-sends something doubles the RTO
up to ``RTO_MAX``; the next clean sample, or an incarnation jump of the
peer, collapses it.  The back-off outlives an ACK that covers only
retransmitted segments: reset there, a peer whose round trip exceeds
the un-backed-off RTO would have every segment re-sent before its ACK
arrives, and Karn's rule would never admit the sample that corrects the
estimate.  A crashed peer thus costs O(log) transmissions per segment —
still for ever.  One one-shot timer per peer drives this, armed only
while that peer's outbox is non-empty: an idle channel schedules
nothing.  (``docs/architecture.md`` has the reasoning behind the
constants.)

The channel also feeds *output-triggered suspicion* [12] (Section
3.3.2): every expiry of the per-peer timer that finds the peer's outbox
non-empty reports the age of its oldest unacknowledged segment to the
``on_stuck`` listeners — the monitoring component, whose policy alone
decides how old is stuck, so it notices no later than its threshold plus
``RTO_MAX``.  ``discard(dst)`` drops the send buffer for
an excluded process, which is the paper's reason for coupling the
channel to the monitoring component.  A discard punches a permanent
hole in the connection's sequence space; should the excluded process
*rejoin* on the same connection (crash, late recovery, exclusion, re-join — found
by the schedule explorer as a wedged state snapshot), the sender
answers any acknowledgement stalled below the hole with a ``GAP``
datagram that advances the receiver past it, so the connection heals
instead of buffering the rejoined member's state transfer forever.

Crash recovery: every DATA/ACK carries the sending process's incarnation
number *and* the incarnation it believes the peer to be running (a TCP
implementation gets the equivalent from connection establishment and
teardown).  When a peer shows up with a *higher* incarnation, its old
connection is considered reset: per-peer receive state is cleared and
any unacknowledged messages to it are renumbered from zero onto the new
connection, preserving FIFO order — so reliability holds across the
peer's recovery.  Traffic from a *lower* (stale) incarnation is dropped
and counted as ``net.stale_incarnation_dropped``; traffic addressed to a
previous incarnation of *ourselves* (the peer has not yet learned we
recovered) is rejected — its sequence numbers belong to a dead
connection — and answered with an ACK that reveals our real incarnation
so the peer resets and renumbers.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.metrics.counters import Cell
from repro.net.wire import INT_BYTES, datagram_size, payload_size, tuple_size
from repro.sim.process import Component, Process
from repro.sim.scheduler import DUE_SLACK, Timer

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.net.transport import Route

PORT = "rc"

#: Bounds of the retransmission timeout, in ms.  ``RTO_MIN`` is the least
#: slack above the smoothed round trip, the least RTO and the RTO towards
#: a peer no ACK has sampled yet.  It must
#: exceed what a single round trip can add to the mean on the measured
#: links — two hops of 3–11 ms, the sender's coalescing hold, the
#: receiver's ``ACK_HOLD``, 16 ms to serialise a full batch of 4 KiB
#: bodies at 2 MB/s — or the channel re-sends what was never lost.
#: ``RTO_MAX`` caps the back-off and bounds how late the output-triggered
#: suspicion can notice a stuck peer.
RTO_MIN = 40.0
RTO_MAX = 320.0

#: How long an owed ACK waits for a datagram going the same way before it
#: is sent on its own.  A quarter of ``RTO_MIN``: the hold is part of
#: every round-trip sample, so it must stay a small share of the slack
#: ``RTO_MIN`` leaves above the mean.  Holds of 2 / 5 / 10 / 20 ms read
#: 17.9 / 17.1 / 16.2 / 15.4 datagrams per op on ``order_small``: beyond
#: 10 ms, half of what a longer hold saves in pure ACKs comes back as
#: heartbeats those ACKs no longer suppress.
ACK_HOLD = RTO_MIN / 4

#: How long a segment to an idle link waits: past every event of the
#: current instant, those its own cascade posts later at zero delay
#: included (rbcast's self-delivery sends gbcast's ack), so they share
#: its datagram — but not a millisecond of coalescing.
INSTANT = 1e-6

#: Byte attribution of the ACK field on a datagram of another layer.
_ACK_FIELD = [("rc", INT_BYTES)]

#: Bytes of the four-field header every datagram opens with: its kind
#: and three ints (our incarnation, the peer's, the cumulative ACK).
_HEAD_BYTES = {
    kind: payload_size(kind) + 3 * INT_BYTES for kind in ("DATA", "BATCH", "ACK", "GAP")
}

#: Default layer attribution for well-known ports (used when the caller
#: does not pass ``layer=`` to :meth:`ReliableChannel.send`).  Unknown
#: ports fall back to their prefix before the first dot.
PORT_LAYERS = {
    "cons": "consensus",
    "gb.ack": "gbcast",
    "gb.gather": "gbcast",
    "gb.gather_ok": "gbcast",
    "gm.state": "membership",
    "gm.join_req": "membership",
    "rb": "rbcast",
    "rb.stable": "rbcast",
    "rb.nack": "rbcast",
}


def layer_of_port(port: str) -> str:
    """Best-effort layer attribution for a port name: the table's, else
    the name up to its first dot (split only on a miss)."""
    layer = PORT_LAYERS.get(port)
    if layer is None:
        layer = port.split(".", 1)[0]
    return layer


@dataclass(slots=True)
class _Pending:
    seq: int
    port: str
    payload: Any
    first_sent: float
    layer: str = "other"
    #: Wire bytes of ``payload``: sized once, at :meth:`ReliableChannel.send`.
    size: int = 0
    #: Causal "queue" span for this segment: opened at ``send()``, closed
    #: at first transmission; re-activated around retransmissions so they
    #: chain to the original send in the span tree.
    span: Any = None
    #: Time of the latest transmission and the number of transmissions;
    #: zero while the segment still waits in the coalescing buffer.
    last_sent: float = 0.0
    transmits: int = 0


class _Peer:
    """Everything the channel keeps about one peer, in one record: both
    directions of the connection, the coalescing buffer and the owed
    ACK, the round-trip estimator and the retransmission timer, and the
    transport route the datagrams take.  A reincarnation of the peer
    resets the connection fields of this one record."""

    __slots__ = (
        "pid", "route", "incarnation", "next_seq", "outbox", "discard_floor",
        "next_expected", "reorder", "sendbuf", "flush_due", "ack_timer",
        "srtt", "rttvar", "base", "backoff", "timer",
    )

    def __init__(self, pid: str, route: "Route") -> None:
        self.pid = pid
        self.route = route
        #: Highest incarnation observed; a jump resets the connection.
        #: An unknown peer is at incarnation 0 by definition (every
        #: process starts there): send state built before first contact
        #: belongs to the incarnation-0 connection.
        self.incarnation = 0
        self.next_seq = 0
        #: Unacknowledged segments, seq-ascending by construction
        #: (appended in send order; a reincarnation rebuilds it ascending).
        self.outbox: deque[_Pending] = deque()
        #: Sequence floor left behind by :meth:`ReliableChannel.discard`:
        #: seqs below it may have been dropped unsent and will never be
        #: retransmitted, so a receiver stalled below the floor (the
        #: excluded peer rejoined on the same connection) is told to
        #: skip ahead with a GAP datagram instead of waiting forever.
        self.discard_floor = 0
        self.next_expected = 0
        self.reorder: dict[int, tuple[str, Any]] = {}
        #: Segments awaiting a coalesced flush, and whether one is posted.
        self.sendbuf: list[_Pending] = []
        self.flush_due = False
        #: The hold timer of an owed ACK, which sends it on its own
        #: should no datagram go this way first (coalescing only).
        self.ack_timer: Timer | None = None
        # The round-trip estimator (RFC 6298) and retransmission timer.
        self.srtt: float | None = None
        self.rttvar = 0.0
        #: The RTO before back-off: ``RTO_MIN`` until the first sample.
        self.base = RTO_MIN
        #: Consecutive expiries that re-sent something since the last
        #: clean sample; the RTO is doubled this many times.
        self.backoff = 0
        self.timer: Timer | None = None

    def sample(self, rtt: float) -> None:
        """Fold in one round-trip sample (RFC 6298 §2) and end the back-off."""
        if self.srtt is None:
            self.srtt = rtt
            self.rttvar = rtt / 2
        else:
            self.rttvar += (abs(self.srtt - rtt) - self.rttvar) / 4
            self.srtt += (rtt - self.srtt) / 8
        self.base = self.srtt + max(4 * self.rttvar, RTO_MIN)
        self.backoff = 0

    def timeout(self) -> float:
        return min(self.base * (1 << self.backoff), RTO_MAX)


class ReliableChannel(Component):
    """Per-process reliable FIFO point-to-point channel.

    **Send-side coalescing** (off by default): with ``coalesce_delay``
    set, DATA segments to the same peer ride one ``BATCH`` datagram (up
    to ``max_segment_batch`` of them, which flush at once); the receiver
    answers a whole batch — and every arrival within one coalescing
    window — with a single cumulative ACK.  How long a segment that opens
    the buffer waits depends on the link: behind a datagram sent to that
    peer within the last ``coalesce_delay`` ms it waits that long, for
    the burst under way to join it; on an idle link only until the end
    of the current instant (``INSTANT``), for what the same event cascade
    adds.  Batching pays where a link is busy and costs a hop's latency
    where it is idle, so this cuts the channel's datagram share of
    per-delivery cost under bursty traffic while an isolated message —
    the head of a consensus or generic broadcast chain — pays nothing.
    Reliability, FIFO order and the incarnation fencing are unaffected:
    segments keep their per-peer sequence numbers, and the receive-side
    reorder buffer is oblivious to how segments were packed on the wire.
    """

    def __init__(
        self,
        process: Process,
        coalesce_delay: float | None = None,
        max_segment_batch: int = 8,
    ) -> None:
        super().__init__(process, "rc")
        self.coalesce_delay = coalesce_delay
        self.max_segment_batch = max(1, max_segment_batch)
        #: One record per peer (see :class:`_Peer`).
        self._peers: dict[str, _Peer] = {}
        self._stuck_listeners: list[Callable[[str, float], None]] = []
        counters = self.world.metrics.counters
        self._counters = counters
        self._spans = self.world.trace.spans
        self._transport = self.world.transport
        self._count_delivered = counters.cell("rc.delivered")
        self._count_retransmits = counters.cell("rc.retransmits")
        self._count_duplicates = counters.cell("rc.duplicates_received")
        self._count_rtt_samples = counters.cell("rc.rtt_samples")
        self._count_backoffs = counters.cell("rc.backoffs")
        self._count_batches = counters.cell("rc.batches")
        self._count_coalesced = counters.cell("rc.segments_coalesced")
        self._count_piggybacked = counters.cell("rc.acks_piggybacked")
        self._count_sent = counters.cell("rc.sent")
        #: Per port: the ``rc.sent.port.<port>`` cell and the port's wire bytes.
        self._ports: dict[str, tuple[Cell, int]] = {}
        self.register_port(PORT, self._on_datagram)

    @property
    def incarnation(self) -> int:
        return self.process.incarnation

    def _peer(self, pid: str) -> _Peer:
        """The record of ``pid``, made on first contact either way."""
        peer = self._peers.get(pid)
        if peer is None:
            peer = self._peers[pid] = _Peer(pid, self._transport.route(self.pid, pid))
        return peer

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, dst: str, port: str, payload: Any, layer: str | None = None) -> None:
        """Reliably send ``payload`` to ``port`` on ``dst`` (FIFO order).

        ``layer`` attributes the first transmission to the initiating
        protocol layer for the ``net.sent.<layer>`` counters; when
        omitted it is derived from the port name.  ACKs and
        retransmissions are channel overhead and always count as ``rc``.
        """
        self._send(dst, port, payload, layer or layer_of_port(port), None)

    def send_to_all(
        self, dsts: list[str], port: str, payload: Any, layer: str | None = None
    ) -> None:
        """:meth:`send` to each of ``dsts``; the payload is sized once."""
        layer = layer or layer_of_port(port)
        size = payload_size(payload)
        for dst in dsts:
            self._send(dst, port, payload, layer, size)

    def _send(self, dst: str, port: str, payload: Any, layer: str, size: int | None) -> None:
        known = self._ports.get(port)
        if known is None:
            known = self._ports[port] = (
                self._counters.cell(f"rc.sent.port.{port}"),
                payload_size(port),
            )
        self._count_sent.n += 1
        known[0].n += 1
        if dst == self.pid:
            # Local delivery: immediate, reliable and ordered by the
            # scheduler; no acks needed.
            self.process.post(0.0, self.process.dispatch, port, dst, payload)
            return
        if size is None:
            size = payload_size(payload)
        now = self._scheduler._now
        peer = self._peers.get(dst) or self._peer(dst)
        seq = peer.next_seq
        peer.next_seq = seq + 1
        pending = _Pending(seq, port, payload, now, layer, size)
        peer.outbox.append(pending)
        self._ensure_armed(peer)
        spans = self._spans
        if spans.enabled:
            pending.span = spans.begin(self.pid, layer, f"rc:{port}", "queue", now)
        if self.coalesce_delay is None:
            pending.last_sent = now
            pending.transmits = 1
            self._transmit_data(peer, pending, layer)
            if pending.span is not None:
                # No coalescing wait on the direct path: zero queue time.
                pending.span.end = now
            return
        buffered = peer.sendbuf
        buffered.append(pending)
        if len(buffered) >= self.max_segment_batch:
            self._flush(peer)
        elif not peer.flush_due:
            peer.flush_due = True
            last = peer.route.last_sent
            idle = last is None or now - last >= self.coalesce_delay
            self.process.post(INSTANT if idle else self.coalesce_delay, self._flush, peer)

    def _flush(self, peer: _Peer) -> None:
        """Send everything buffered for ``peer`` as one BATCH datagram.

        The datagram is attributed to the first segment's layer — a
        packed datagram is one wire message, and mixed batches are rare
        enough that finer attribution is not worth a per-segment counter.
        """
        peer.flush_due = False
        buffered = peer.sendbuf
        if not buffered:
            return
        peer.sendbuf = []
        # Close every segment's queue span (the coalescing wait ends
        # here); the wire datagram rides under the first segment's span.
        now = self._scheduler._now
        for e in buffered:
            e.last_sent = now
            e.transmits = 1
            if e.span is not None:
                e.span.end = now
        if len(buffered) == 1:
            self._transmit_data(peer, buffered[0], buffered[0].layer)
            return
        self._count_batches.n += 1
        self._count_coalesced.n += len(buffered) - 1
        # Datagram *count* goes to the first segment's layer (one wire
        # message); *bytes* are split per segment — a consensus-headed
        # batch must not absorb the abcast payload bodies packed behind
        # it, or the ordering-vs-dissemination byte split is noise.
        split = [(e.layer, e.size) for e in buffered]
        self._transmit_batch(peer, buffered, buffered[0].layer, split)

    def _segment_bytes(self, entry: _Pending) -> int:
        """Wire bytes of a segment's three items ``(seq, port, payload)``."""
        return INT_BYTES + self._ports[entry.port][1] + entry.size

    def _transmit_data(self, peer: _Peer, entry: _Pending, layer: str) -> None:
        """One segment as one DATA datagram (its items follow the header)."""
        self._transmit(
            entry.span, peer, "DATA", (entry.seq, entry.port, entry.payload), layer,
            self._segment_bytes(entry),
        )

    def _transmit_batch(
        self,
        peer: _Peer,
        entries: list[_Pending],
        layer: str,
        byte_split: list[tuple[str, int]] | None = None,
    ) -> None:
        """Several segments as one BATCH datagram: one tuple of segments."""
        segments = tuple((e.seq, e.port, e.payload) for e in entries)
        items = tuple_size(sum(tuple_size(self._segment_bytes(e)) for e in entries))
        self._transmit(entries[0].span, peer, "BATCH", (segments,), layer, items, byte_split)

    def _transmit(
        self,
        span: Any,
        peer: _Peer,
        kind: str,
        body: tuple,
        layer: str,
        body_bytes: int,
        byte_split: list[tuple[str, int]] | None = None,
    ) -> None:
        """Put one datagram for ``peer`` on the wire.

        ``body_bytes`` is the wire size of the ``body`` items, which the
        caller knows without walking them; the transport is handed the
        datagram's size, so nothing is sized twice.

        Whatever its kind, it opens with the same header — our
        incarnation, the incarnation we believe ``peer`` to run and the
        cumulative ACK for the reverse direction — so an ACK owed to
        ``peer`` rides it and its hold timer is cancelled.
        The ACK field is the channel's own overhead: its bytes go to
        ``rc``, not to the layer of the data it rides.

        ``span`` becomes the ambient causal parent (if any), so the
        datagram's transit span chains to the segment's queue span —
        including for retransmissions long after the original send.
        """
        held = peer.ack_timer
        if held is not None:
            peer.ack_timer = None
            held.cancel()
            if kind != "ACK":
                self._count_piggybacked.n += 1
        datagram = (
            kind, self.process.incarnation, peer.incarnation, peer.next_expected
        ) + body
        if layer != "rc":
            byte_split = _ACK_FIELD if byte_split is None else byte_split + _ACK_FIELD
        size = datagram_size(_HEAD_BYTES[kind] + body_bytes)
        if span is None:
            self._transport.send(peer.route, PORT, datagram, layer, size, byte_split)
            return
        self._spans.within(
            span, self._transport.send, peer.route, PORT, datagram, layer, size, byte_split
        )

    def discard(self, dst: str) -> None:
        """Drop buffered messages for ``dst`` (after membership exclusion).

        This punches a hole in the connection's sequence space: anything
        discarded while unacknowledged will never be retransmitted.  The
        floor of the hole is remembered so that if the excluded process
        later *rejoins* (same incarnation, same connection), a receiver
        still waiting below it can be advanced past the hole — see the
        GAP handling in :meth:`_on_ack` / :meth:`_on_datagram`.

        Segments still waiting in the coalescing buffer get their one
        transmission first, as they would have had without coalescing:
        the DECIDE that carries ``remove(dst)`` is typically among them,
        and a member that removes itself learns of it no other way.
        """
        peer = self._peer(dst)
        self._flush(peer)
        dropped = peer.outbox
        peer.discard_floor = peer.next_seq
        if dropped:
            self.trace("discard", dst=dst, count=len(dropped))
            dropped.clear()
            self._disarm(peer)

    def unacked(self, dst: str) -> int:
        peer = self._peers.get(dst)
        return 0 if peer is None else len(peer.outbox)

    def oldest_unacked_age(self, dst: str) -> float:
        peer = self._peers.get(dst)
        if peer is None or not peer.outbox:
            return 0.0
        return self.now - peer.outbox[0].first_sent

    def on_stuck(self, listener: Callable[[str, float], None]) -> None:
        """Register an output-triggered suspicion listener.

        The listener receives ``(dst, age_ms)`` — the age of the oldest
        unacked segment to ``dst`` — on every expiry of the
        retransmission timer towards ``dst`` (at most ``RTO_MAX`` apart)
        that finds one; whether that age means stuck is its own call.
        """
        self._stuck_listeners.append(listener)

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    def _on_datagram(self, src: str, datagram: tuple) -> None:
        kind, incarnation, believes_us, ack = datagram[:4]
        peer = self._peers.get(src) or self._peer(src)
        if incarnation != peer.incarnation and not self._note_peer_incarnation(
            peer, incarnation
        ):
            self.world.metrics.counters.inc("net.stale_incarnation_dropped")
            return
        if believes_us != self.process.incarnation:
            # The peer is still talking to a previous incarnation's
            # connection: its sequence numbers are meaningless to us.
            # Reject the datagram, but answer at once (our ACK carries
            # our real incarnation) so the peer learns of us and resets.
            self.world.metrics.counters.inc("rc.stale_connection_dropped")
            if kind != "ACK":
                self._send_ack(peer)
            return
        self._on_ack(peer, ack)
        if kind == "DATA":
            seq, port, payload = datagram[4:]
            self._admit(peer, seq, port, payload)
            self._request_ack(peer)
        elif kind == "BATCH":
            for seq, port, payload in datagram[4]:
                self._admit(peer, seq, port, payload)
                if self.process.crashed:
                    return
            # One cumulative ACK covers the whole batch.
            self._request_ack(peer)
        elif kind == "GAP":
            self._skip_hole(peer, datagram[4])
            self._request_ack(peer)

    def _send_ack(self, peer: _Peer) -> None:
        self._transmit(None, peer, "ACK", (), "rc", 0)

    def flush_toward(self, dst: str) -> bool:
        """Transmit now what the channel holds for ``dst`` — its buffered
        segments, else the ACK it owes — and say whether a datagram left.
        A due keep-alive goes out as this datagram instead of a heartbeat."""
        peer = self._peers.get(dst)
        if peer is None:
            return False
        if peer.sendbuf:
            self._flush(peer)
        elif peer.ack_timer is not None:
            self._send_ack(peer)
        else:
            return False
        return True

    def _request_ack(self, peer: _Peer) -> None:
        """Owe ``peer`` an ACK.  Without coalescing it is sent at once.
        With it, the ACK rides the next datagram that goes to ``peer``
        anyway — a reply, a consensus ACK, a DECIDE — and is sent on its
        own only if none has gone after ``ACK_HOLD`` ms (it is cumulative,
        so delaying it is always safe).  Data is never flushed early for
        an ACK's sake."""
        if self.coalesce_delay is None:
            self._send_ack(peer)
        elif peer.ack_timer is None:
            peer.ack_timer = self.schedule(ACK_HOLD, self._send_ack, peer)

    def _note_peer_incarnation(self, peer: _Peer, incarnation: int) -> bool:
        """Track the peer's incarnation; returns False for stale traffic.

        On a jump the peer has recovered from a crash: its old connection
        state (receive counters, reorder buffer) is void, and anything
        still unacknowledged towards it must be re-sent on the new
        connection — renumbered from zero, in the original FIFO order.
        """
        known = peer.incarnation
        if incarnation < known:
            return False
        if incarnation > known:
            self.trace("peer_reincarnated", peer=peer.pid, incarnation=incarnation)
            self.world.metrics.counters.inc("rc.peer_reincarnations")
            peer.next_expected = 0
            peer.reorder = {}
            # The new connection is renumbered from zero; an exclusion
            # hole in the old numbering is meaningless on it.
            peer.discard_floor = 0
            # Coalescing buffers hold old-connection sequence numbers;
            # their segments are in the outbox and get renumbered below.
            peer.sendbuf = []
            peer.flush_due = False
            pending = peer.outbox
            peer.next_seq = 0
            if pending:
                # A new connection: first transmissions again (so the
                # ACKs they draw are clean samples), no back-off.
                now = self.now
                entries = [
                    _Pending(seq, e.port, e.payload, now, e.layer, e.size, e.span, now, 1)
                    for seq, e in enumerate(pending)
                ]
                pending.clear()
                pending.extend(entries)
                peer.next_seq = len(entries)
                peer.incarnation = incarnation
                peer.backoff = 0
                self._ensure_armed(peer)
                for e in entries:
                    self._transmit_data(peer, e, e.layer)
        peer.incarnation = incarnation
        return True

    def _admit(self, peer: _Peer, seq: int, port: str, payload: Any) -> None:
        """Run one DATA segment through the reorder buffer (no ACK —
        the caller acknowledges once per datagram / coalescing window)."""
        expected = peer.next_expected
        buffer = peer.reorder
        if seq < expected or seq in buffer:
            self._count_duplicates.n += 1
            return
        buffer[seq] = (port, payload)
        self._drain(peer, buffer, expected)

    def _drain(self, peer: _Peer, buffer: dict[int, tuple[str, Any]], expected: int) -> None:
        """Dispatch the contiguous run of ``buffer`` from ``expected`` on."""
        process = self.process
        src = peer.pid
        while expected in buffer:
            port, payload = buffer.pop(expected)
            expected += 1
            peer.next_expected = expected
            self._count_delivered.n += 1
            process.dispatch(port, src, payload)
            if process.crashed:
                return

    def _skip_hole(self, peer: _Peer, floor: int) -> None:
        """Advance past a sender-declared discard hole (GAP datagram).

        Everything below ``floor`` was addressed to this process's
        membership session *before* its exclusion and was dropped by the
        sender; waiting for it would wedge the connection forever.  Any
        buffered segments below the floor belong to that torn-down era
        and are dropped with it; delivery resumes contiguously from the
        floor.
        """
        if floor <= peer.next_expected:
            return
        buffer = peer.reorder
        stale = [seq for seq in buffer if seq < floor]
        for seq in stale:
            del buffer[seq]
        peer.next_expected = floor
        self.world.metrics.counters.inc("rc.gap_skips")
        self.trace("gap_skip", src=peer.pid, floor=floor, dropped=len(stale))
        self._drain(peer, buffer, floor)

    def _on_ack(self, peer: _Peer, ack_up_to: int) -> None:
        pending = peer.outbox
        if pending and pending[0].seq < ack_up_to:
            head = pending.popleft()
            while pending and pending[0].seq < ack_up_to:
                pending.popleft()
            # Karn's rule, on the oldest segment the ACK covers: younger
            # ones may have sat in the receiver's reorder buffer waiting
            # for a retransmitted head, which is not a round trip.
            if head.transmits == 1:
                self._count_rtt_samples.n += 1
                peer.sample(self._scheduler._now - head.last_sent)
            if not pending:
                self._disarm(peer)
        floor = peer.discard_floor
        if ack_up_to < floor < peer.next_seq:
            # The receiver is waiting for a segment below the discard
            # floor — we dropped it on exclusion and will never resend
            # it.  The peer has rejoined (we sent it something above the
            # hole, it is acking below), so tell it to skip the hole;
            # re-sent on every stalled ACK, which makes the notice
            # loss-tolerant.  With nothing sent above the floor the ACK
            # is merely an old one: a notice now could overtake the last
            # transmission :meth:`discard` made and void it.
            self.world.metrics.counters.inc("rc.gap_notices")
            self._transmit(None, peer, "GAP", (floor,), "rc", INT_BYTES)

    # ------------------------------------------------------------------
    # Retransmission + output-triggered suspicion
    # ------------------------------------------------------------------
    def _ensure_armed(self, peer: _Peer) -> None:
        """Arm the timer towards ``peer`` one RTO out unless it is running
        (``active`` rather than ``is None``: a timer that came due while
        the process was crashed has fired without running)."""
        timer = peer.timer
        if timer is None or not timer.active:
            peer.timer = self.schedule(peer.timeout(), self._on_timeout, peer)

    @staticmethod
    def _disarm(peer: _Peer) -> None:
        if peer.timer is not None:
            peer.timer.cancel()
            peer.timer = None

    def _on_timeout(self, peer: _Peer) -> None:
        """The retransmission timer towards ``peer`` expired: re-send what
        has been out for a whole RTO, back off, report the age of the
        oldest unacked segment to the ``on_stuck`` listeners, and
        re-arm for the segment that falls due next."""
        peer.timer = None
        pending = peer.outbox
        if not pending:
            return
        now = self.now
        timeout = peer.timeout()
        sent_before = now - timeout + DUE_SLACK
        due = [p for p in pending if p.transmits and p.last_sent <= sent_before]
        if due:
            if timeout < RTO_MAX:
                peer.backoff += 1
                self._count_backoffs.n += 1
                timeout = peer.timeout()
            self._retransmit(peer, due)
        age = now - pending[0].first_sent
        # Listeners may send (arming the timer) or discard the peer.
        for listener in self._stuck_listeners:
            listener(peer.pid, age)
        if pending and peer.timer is None:
            oldest = min((p.last_sent for p in pending if p.transmits), default=now)
            peer.timer = self.schedule(
                max(0.0, oldest + timeout - now), self._on_timeout, peer
            )

    def _retransmit(self, peer: _Peer, entries: list[_Pending]) -> None:
        now = self.now
        for entry in entries:
            entry.last_sent = now
            entry.transmits += 1
        self._count_retransmits.n += len(entries)
        # Retransmissions batch too — they are pure channel overhead, so
        # fewer datagrams is a direct win.
        step = 1 if self.coalesce_delay is None else self.max_segment_batch
        for i in range(0, len(entries), step):
            chunk = entries[i:i + step]
            if len(chunk) == 1:
                self._transmit_data(peer, chunk[0], "rc")
            else:
                self._transmit_batch(peer, chunk, "rc")
