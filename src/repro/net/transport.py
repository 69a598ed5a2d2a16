"""Unreliable transport: the bottom of every stack (Fig. 9, ``u-send`` /
``u-receive``).

Delivers envelopes point-to-point with per-link stochastic delay, loss
and duplication, and respects the current partition.  Messages to a
crashed process are dropped at delivery time (crash-stop model).

Crash-recovery fencing: every datagram is stamped at send time with the
sender's and the addressee's current incarnation numbers.  At delivery
time the stamp must still match on both ends — a packet sent *by* an
incarnation that has since been replaced, or *to* an incarnation that
has since died, is dropped and counted as ``net.stale_incarnation_dropped``.
This models what connection-oriented transports give real systems for
free: the old incarnation's connections die with it, so its traffic can
never be confused with the new incarnation's.

Traffic-aware liveness (Section 3.3.2 taken to its conclusion): any
datagram received from a peer is evidence that the peer is alive, not
just its explicit heartbeats.  The transport therefore exposes two hooks
for the failure-detection component:

* a **liveness tap** — ``register_liveness_sink(process, sink)`` installs
  a per-process callback invoked at delivery time, *after* the
  incarnation fence, with ``(src, src_incarnation, port)``.  The fence
  matters: a datagram sent by a since-replaced incarnation is dropped
  before the tap, so stale pre-crash traffic can never vouch for a
  recovered process.  Sinks are themselves incarnation-fenced — a sink
  registered by a dead incarnation's component stops firing the moment
  the process recovers.
* **last-sent tracking** — ``last_sent(src, dst)`` reports when ``src``
  last handed the transport any datagram for ``dst``.  The failure
  detector uses it to *suppress* explicit heartbeats on links our own
  traffic already keeps warm.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.net.topology import LAN, LinkModel
from repro.net.wire import wire_size
from repro.sim.randomness import fork_rng

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.sim.world import World


class UnreliableTransport:
    """Point-to-point datagram service over the simulated network."""

    def __init__(self, world: "World", default_link: LinkModel = LAN) -> None:
        self.world = world
        self.default_link = default_link
        self._links: dict[tuple[str, str], LinkModel] = {}
        self._rng = fork_rng(world.seed, "transport")
        self._spans = world.trace.spans
        # Counters resolved once into handles: the send path bumps six per
        # datagram.
        counters = world.metrics.counters
        self._counters = counters
        self._inc_sent = counters.handle("net.sent")
        self._inc_bytes = counters.handle("net.bytes")
        self._inc_delivered = counters.handle("net.delivered")
        self._inc_dropped_partition = counters.handle("net.dropped.partition")
        self._inc_dropped_loss = counters.handle("net.dropped.loss")
        self._inc_dropped_crashed = counters.handle("net.dropped.crashed")
        self._inc_duplicated = counters.handle("net.duplicated")
        self._inc_stale = counters.handle("net.stale_incarnation_dropped")
        #: (src, layer, port) -> the handles of one datagram's counters
        #: ``net.bytes.sent.<src>`` (per-sender wire bytes, the
        #: measurement half of bandwidth-*balanced* dissemination — the
        #: aggregate ``net.bytes`` cannot show whether the load sits on
        #: one NIC or is spread around a ring), ``net.sent.<layer>``,
        #: ``net.bytes.<layer>`` and ``net.sent.port.<port>``, and the
        #: sender's last-sent map.
        self._send_keys: dict[tuple[str, str, str], tuple] = {}
        #: layer -> the ``net.bytes.<layer>`` handle, for a byte split.
        self._byte_keys: dict[str, Callable[[int], None]] = {}
        #: pid -> (incarnation at registration, sink).  One sink per
        #: process; re-registration (a recovered incarnation's fresh FD)
        #: overwrites, and the stored incarnation fences out callbacks
        #: into components of a dead incarnation.
        self._liveness_sinks: dict[str, tuple[int, Callable[[str, int, str], None]]] = {}
        #: src pid -> {dst pid -> time of last datagram handed to us}.
        self._last_sent: dict[str, dict[str, float]] = {}

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def set_link(self, src: str, dst: str, model: LinkModel) -> None:
        """Override the link model for one directed pair."""
        self._links[(src, dst)] = model

    def link(self, src: str, dst: str) -> LinkModel:
        return self._links.get((src, dst), self.default_link)

    # ------------------------------------------------------------------
    # Traffic-aware liveness hooks
    # ------------------------------------------------------------------
    def register_liveness_sink(
        self, process: Any, sink: Callable[[str, int, str], None]
    ) -> None:
        """Install ``sink(src, src_incarnation, port)`` for ``process``.

        The sink fires once per datagram delivered to the process, after
        the crash/incarnation/partition checks and before dispatch.  One
        sink per pid: registering again (a recovered incarnation's new
        failure detector) replaces the old one.
        """
        self._liveness_sinks[process.pid] = (process.incarnation, sink)

    def last_sent(self, src: str, dst: str) -> float | None:
        """When ``src`` last sent ``dst`` any datagram (None = never).

        Send-time, not delivery-time: a lost datagram still counts — the
        sender cannot know, exactly as with piggybacked liveness over a
        real network.  The suppression window bounds the resulting
        evidence gap to one heartbeat period.
        """
        per_dst = self._last_sent.get(src)
        return None if per_dst is None else per_dst.get(dst)

    # ------------------------------------------------------------------
    # Datagram service
    # ------------------------------------------------------------------
    def _keys(self, key: tuple[str, str, str]) -> tuple:
        src, layer, port = key
        handle = self._counters.handle
        keys = self._send_keys[key] = (
            handle(f"net.bytes.sent.{src}"),
            handle(f"net.sent.{layer}"),
            handle(f"net.bytes.{layer}"),
            handle(f"net.sent.port.{port}"),
            self._last_sent.setdefault(src, {}),
        )
        return keys

    def u_send(
        self,
        src: str,
        dst: str,
        port: str,
        payload: Any,
        layer: str = "other",
        byte_split: list[tuple[str, int]] | None = None,
        size: int | None = None,
    ) -> None:
        """Best-effort send; may drop, delay or duplicate.

        ``layer`` attributes the datagram to the protocol layer that
        caused it (``fd``, ``rc``, ``rbcast``, ``consensus``, ``abcast``,
        ``gbcast``, ``membership``, ...) as ``net.sent.<layer>`` — so
        per-delivery-cost claims can separate heartbeat background noise
        from protocol traffic.  Layers are attributed at the *initiating*
        layer: a reliable-channel DATA segment carrying a consensus
        message counts as ``consensus``, while the channel's own ACKs and
        retransmissions count as ``rc``.

        Alongside the datagram count, the structural wire-byte estimate
        (``repro.net.wire.wire_size``) is charged to ``net.bytes`` and
        ``net.bytes.<layer>`` — the measurement half of the
        dissemination-vs-ordering cost split: msgs/delivery alone cannot
        show that ordering traffic stopped carrying payload bodies.
        ``byte_split`` refines the byte attribution for multiplexed
        datagrams (a coalesced BATCH carrying segments of several
        layers): each ``(layer, bytes)`` entry is charged to its own
        layer and only the remainder (framing/header overhead) to
        ``layer`` — otherwise a consensus-headed batch would absorb the
        payload bodies coalesced behind it and the ordering-vs-
        dissemination split would be noise.

        ``size`` is the datagram's ``wire_size(payload)`` when the caller
        knows it already (the reliable channel sizes each segment once);
        it must equal that, or byte counters and bandwidth delays drift.
        Without it the payload is walked here.
        """
        if size is None:
            size = wire_size(payload)
        key = (src, layer, port)
        keys = self._send_keys.get(key)
        if keys is None:
            keys = self._keys(key)
        inc_pid_bytes, inc_layer_sent, inc_layer_bytes, inc_port_sent, per_dst = keys
        self._inc_sent()
        self._inc_bytes(size)
        inc_pid_bytes(size)
        inc_layer_sent()
        if byte_split is None:
            inc_layer_bytes(size)
        else:
            accounted = 0
            byte_keys = self._byte_keys
            for seg_layer, seg_bytes in byte_split:
                inc = byte_keys.get(seg_layer)
                if inc is None:
                    inc = byte_keys[seg_layer] = self._counters.handle(f"net.bytes.{seg_layer}")
                inc(seg_bytes)
                accounted += seg_bytes
            inc_layer_bytes(size - accounted)
        inc_port_sent()
        now = self.world.scheduler._now
        per_dst[dst] = now
        # Partitions are checked once, at delivery time (the authoritative
        # check: the simulated wire is cut for in-flight traffic too); the
        # old send-time pre-check was a duplicate on the hot path.
        model = self.link(src, dst)
        if src != dst and model.drops(self._rng):
            self._inc_dropped_loss()
            return
        copies = 2 if (src != dst and model.duplicates(self._rng)) else 1
        src_inc = self._incarnation(src)
        dst_inc = self._incarnation(dst)
        post = self.world.scheduler.post
        spans = self._spans
        transmit = 0.0 if src == dst else model.transmit_ms(size)
        for _ in range(copies):
            delay = 0.0 if src == dst else model.sample_delay(self._rng) + transmit
            # One transit span per datagram copy, child of whatever span
            # context caused this send — the causal edge of the hop.
            # Spans carry the payload's *size*, never its body: trace
            # artifacts must stay small under large-payload workloads.
            span = (
                spans.begin(src, layer, f"net:{port}", "transit", now)
                if spans.enabled
                else None
            )
            if span is not None:
                span.note(bytes=size)
            post(delay, self._deliver, src, dst, port, payload, src_inc, dst_inc, span)
        if copies == 2:
            self._inc_duplicated()

    def _incarnation(self, pid: str) -> int:
        process = self.world.processes.get(pid)
        return 0 if process is None else process.incarnation

    def _deliver(
        self,
        src: str,
        dst: str,
        port: str,
        payload: Any,
        src_inc: int = 0,
        dst_inc: int = 0,
        span: Any = None,
    ) -> None:
        now = self.world.scheduler.now
        if span is not None:
            span.end = now
        process = self.world.processes.get(dst)
        if process is None or process.crashed:
            self._inc_dropped_crashed()
            if span is not None:
                span.note(dropped="crashed")
            return
        # Incarnation fence (crash-recovery model): the packet must have
        # been sent by the sender's *current* incarnation and addressed
        # to the receiver's *current* incarnation.
        if self._incarnation(src) != src_inc or process.incarnation != dst_inc:
            self._inc_stale()
            if span is not None:
                span.note(dropped="stale_incarnation")
            return
        # Partitions stop messages both at send time and in flight: the
        # simulated "wire" is cut, which matches how tests expect an
        # abrupt split to behave.
        if src != dst and not self.world.partitions.connected(src, dst):
            self._inc_dropped_partition()
            if span is not None:
                span.note(dropped="partition")
            return
        self._inc_delivered()
        # Liveness tap: every surviving datagram is evidence that its
        # sender's *current* incarnation is alive (the fences above
        # already dropped anything from a replaced incarnation).
        entry = self._liveness_sinks.get(dst)
        if entry is not None and entry[0] == process.incarnation:
            entry[1](src, src_inc, port)
        if span is None:
            process.dispatch(port, src, payload)
            return
        # Activate the transit span around dispatch: everything the
        # receiving stack does in reaction — sends, timers — chains to
        # this datagram in the causal tree.
        spans = self._spans
        prev = spans._current
        spans._current = span
        try:
            process.dispatch(port, src, payload)
        finally:
            spans._current = prev
