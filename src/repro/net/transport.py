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
* **last-sent tracking** — ``route(src, dst).last_sent`` is when ``src``
  last handed the transport any datagram for ``dst`` (None = never).
  Send-time, not delivery-time: a lost datagram still counts — the
  sender cannot know, exactly as with piggybacked liveness over a real
  network.  The failure detector uses it to *suppress* explicit
  heartbeats on links our own traffic already keeps warm (the
  suppression window bounds the resulting evidence gap to one heartbeat
  period), the reliable channel to tell an idle link from a busy one.

**One route per link.**  Everything the per-datagram path reads about a
directed pair — its link model, its last-sent slot, the two processes
whose incarnations stamp and fence the datagram, its counter cells —
lives in one :class:`Route`, made on first use and looked up once per
datagram.  The failure detector and the reliable channel hold the
routes of their own links.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.metrics.counters import Cell
from repro.net.topology import LAN, LinkModel
from repro.net.wire import wire_size
from repro.sim.randomness import fork_rng

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.sim.process import Process
    from repro.sim.world import World


class Route:
    """One directed link as the datagram path reads it.

    ``link`` follows :meth:`UnreliableTransport.set_link` and the
    transport's ``default_link``; the process ends are filled in once
    they exist (an end that does not exist has incarnation 0).
    """

    __slots__ = ("src", "dst", "loopback", "link", "last_sent", "src_process",
                 "dst_process", "cells")

    def __init__(self, src: str, dst: str, link: LinkModel) -> None:
        self.src = src
        self.dst = dst
        self.loopback = src == dst
        self.link = link
        #: When ``src`` last handed the transport a datagram for ``dst``.
        self.last_sent: float | None = None
        self.src_process: "Process | None" = None
        self.dst_process: "Process | None" = None
        #: (layer, port) -> the counter cells of one datagram (see
        #: :meth:`UnreliableTransport._cells`).
        self.cells: dict[tuple[str, str], tuple[Cell, ...]] = {}


class UnreliableTransport:
    """Point-to-point datagram service over the simulated network."""

    def __init__(self, world: "World", default_link: LinkModel = LAN) -> None:
        self.world = world
        self._default_link = default_link
        self._links: dict[tuple[str, str], LinkModel] = {}
        self._routes: dict[tuple[str, str], Route] = {}
        self._rng = fork_rng(world.seed, "transport")
        self._spans = world.trace.spans
        self._scheduler = world.scheduler
        counters = world.metrics.counters
        self._counters = counters
        self._count_delivered = counters.cell("net.delivered")
        self._count_dropped_partition = counters.cell("net.dropped.partition")
        self._count_dropped_loss = counters.cell("net.dropped.loss")
        self._count_dropped_crashed = counters.cell("net.dropped.crashed")
        self._count_duplicated = counters.cell("net.duplicated")
        self._count_stale = counters.cell("net.stale_incarnation_dropped")
        #: layer -> the ``net.bytes.<layer>`` cell, for a byte split.
        self._byte_cells: dict[str, Cell] = {}
        #: pid -> (incarnation at registration, sink).  One sink per
        #: process; re-registration (a recovered incarnation's fresh FD)
        #: overwrites, and the stored incarnation fences out callbacks
        #: into components of a dead incarnation.
        self._liveness_sinks: dict[str, tuple[int, Callable[[str, int, str], None]]] = {}

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    @property
    def default_link(self) -> LinkModel:
        return self._default_link

    @default_link.setter
    def default_link(self, model: LinkModel) -> None:
        """Every link without its own model follows the default."""
        self._default_link = model
        for key, route in self._routes.items():
            if key not in self._links:
                route.link = model

    def set_link(self, src: str, dst: str, model: LinkModel) -> None:
        """Override the link model for one directed pair."""
        self._links[(src, dst)] = model
        self.route(src, dst).link = model

    def link(self, src: str, dst: str) -> LinkModel:
        return self._links.get((src, dst), self._default_link)

    def route(self, src: str, dst: str) -> Route:
        """The one :class:`Route` of the directed pair, made on first use."""
        route = self._routes.get((src, dst))
        if route is None:
            route = self._routes[(src, dst)] = Route(src, dst, self.link(src, dst))
            self._resolve(route)
        return route

    def _resolve(self, route: Route) -> None:
        """Fill in whichever process ends of ``route`` exist by now."""
        processes = self.world.processes
        route.src_process = processes.get(route.src)
        route.dst_process = processes.get(route.dst)

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

    # ------------------------------------------------------------------
    # Datagram service
    # ------------------------------------------------------------------
    def _cells(self, route: Route, layer: str, port: str) -> tuple[Cell, ...]:
        """The counter cells of a datagram on ``route`` from ``layer`` to
        ``port``: ``net.sent``, ``net.bytes``, ``net.bytes.sent.<src>``
        (per-sender wire bytes, the measurement half of bandwidth-
        *balanced* dissemination — the aggregate ``net.bytes`` cannot show
        whether the load sits on one NIC or is spread around a ring),
        ``net.sent.<layer>``, ``net.bytes.<layer>`` and
        ``net.sent.port.<port>``."""
        cell = self._counters.cell
        cells = route.cells[(layer, port)] = (
            cell("net.sent"), cell("net.bytes"), cell(f"net.bytes.sent.{route.src}"),
            cell(f"net.sent.{layer}"), cell(f"net.bytes.{layer}"), cell(f"net.sent.port.{port}"),
        )
        return cells

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
        """:meth:`send` by name: sizes ``payload`` unless ``size`` is
        given (it must equal ``wire_size(payload)``) and resolves the
        route of ``src`` → ``dst``.  The protocol layers hold their routes
        and call :meth:`send`; this is the spelling for everything else."""
        if size is None:
            size = wire_size(payload)
        self.send(self.route(src, dst), port, payload, layer, size, byte_split)

    def send(
        self,
        route: Route,
        port: str,
        payload: Any,
        layer: str,
        size: int,
        byte_split: list[tuple[str, int]] | None = None,
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

        ``size`` is the datagram's ``wire_size(payload)``, which the
        caller knows without walking the payload (the reliable channel
        sizes each segment once, a heartbeat is a constant); it must equal
        that, or byte counters and bandwidth delays drift.  The datagram
        leaves on ``route``, the one :class:`Route` of its link
        (:meth:`route`): the link draws happen here, inline — drop, then
        duplicate, then one delay per copy; a loopback draws nothing.
        """
        cells = route.cells.get((layer, port))
        if cells is None:
            cells = self._cells(route, layer, port)
        sent, sent_bytes, src_bytes, layer_sent, layer_bytes, port_sent = cells
        sent.n += 1
        sent_bytes.n += size
        src_bytes.n += size
        layer_sent.n += 1
        port_sent.n += 1
        if byte_split is None:
            layer_bytes.n += size
        else:
            # Each segment's bytes go to its own layer, the framing to ``layer``.
            accounted = 0
            byte_cells = self._byte_cells
            for seg_layer, seg_bytes in byte_split:
                seg_cell = byte_cells.get(seg_layer)
                if seg_cell is None:
                    seg_cell = byte_cells[seg_layer] = self._counters.cell(f"net.bytes.{seg_layer}")
                seg_cell.n += seg_bytes
                accounted += seg_bytes
            layer_bytes.n += size - accounted
        scheduler = self._scheduler
        now = scheduler._now
        route.last_sent = now
        # Partitions are checked once, at delivery time (the authoritative
        # check: the simulated wire is cut for in-flight traffic too).
        # The link draws, in their fixed order: drop, duplicate, then one
        # delay per copy.  A loopback datagram is never lost, duplicated
        # or delayed, and draws nothing.
        model = route.link
        rng = self._rng
        copies, delay_min, jitter, transmit = 1, 0.0, 0.0, 0.0
        if not route.loopback:
            drop_prob, dup_prob = model.drop_prob, model.dup_prob
            if drop_prob > 0 and rng.random() < drop_prob:
                self._count_dropped_loss.n += 1
                return
            if dup_prob > 0 and rng.random() < dup_prob:
                copies = 2
            if model.bytes_per_ms is not None:
                transmit = size / model.bytes_per_ms
            delay_min, jitter = model.delay_min, model.delay_jitter
        src_process, dst_process = route.src_process, route.dst_process
        if src_process is None or dst_process is None:
            self._resolve(route)
            src_process, dst_process = route.src_process, route.dst_process
        src_inc = 0 if src_process is None else src_process.incarnation
        dst_inc = 0 if dst_process is None else dst_process.incarnation
        spans = self._spans
        post = scheduler.post
        for _ in range(copies):
            if jitter <= 0:
                delay = delay_min + transmit
            else:
                delay = delay_min + rng.random() * jitter + transmit
            # One transit span per datagram copy, child of whatever span
            # context caused this send — the causal edge of the hop.
            # Spans carry the payload's *size*, never its body: trace
            # artifacts must stay small under large-payload workloads.
            span = None
            if spans.enabled:
                span = spans.begin(route.src, layer, f"net:{port}", "transit", now)
                span.note(bytes=size)
            post(delay, self._deliver, route, port, payload, src_inc, dst_inc, span)
        if copies == 2:
            self._count_duplicated.n += 1

    def _deliver(
        self,
        route: Route,
        port: str,
        payload: Any,
        src_inc: int,
        dst_inc: int,
        span: Any,
    ) -> None:
        if span is not None:
            span.end = self._scheduler._now
        if route.dst_process is None or route.src_process is None:
            self._resolve(route)  # an end that did not exist at send time
        process = route.dst_process
        if process is None or process.crashed:
            self._count_dropped_crashed.n += 1
            if span is not None:
                span.note(dropped="crashed")
            return
        # Incarnation fence (crash-recovery model): the packet must have
        # been sent by the sender's *current* incarnation and addressed
        # to the receiver's *current* incarnation.
        sender = route.src_process
        if (0 if sender is None else sender.incarnation) != src_inc or (
            process.incarnation != dst_inc
        ):
            self._count_stale.n += 1
            if span is not None:
                span.note(dropped="stale_incarnation")
            return
        # Partitions stop messages both at send time and in flight: the
        # simulated "wire" is cut, which matches how tests expect an
        # abrupt split to behave.
        src = route.src
        if not route.loopback and not self.world.partitions.connected(src, route.dst):
            self._count_dropped_partition.n += 1
            if span is not None:
                span.note(dropped="partition")
            return
        self._count_delivered.n += 1
        # Liveness tap: every surviving datagram is evidence that its
        # sender's *current* incarnation is alive (the fences above
        # already dropped anything from a replaced incarnation).
        entry = self._liveness_sinks.get(route.dst)
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
