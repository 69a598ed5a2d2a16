"""The transport's datagram path as it was before routes carried it:
``u_send`` by name, verbatim from the one-method transport.

``test_transport_reference.py`` drives it beside the route-taking
``UnreliableTransport.send`` in twin worlds; only the method body is
kept here, bound to a live transport, so both read the same routes,
counter cells and random stream.
"""

from __future__ import annotations

from typing import Any

from repro.net.wire import wire_size


class ReferenceTransport:
    """A namespace for the reference method: bind it with
    ``types.MethodType(ReferenceTransport.u_send, transport)``."""

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
        route = self._routes.get((src, dst))
        if route is None:
            route = self.route(src, dst)
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
        now = self._scheduler._now
        route.last_sent = now
        # Partitions are checked once, at delivery time (the authoritative
        # check: the simulated wire is cut for in-flight traffic too).
        # A loopback datagram is never lost, duplicated or delayed.
        model = route.link
        rng = self._rng
        loopback = route.loopback
        if not loopback and model.drops(rng):
            self._count_dropped_loss.n += 1
            return
        copies = 2 if (not loopback and model.duplicates(rng)) else 1
        src_process, dst_process = route.src_process, route.dst_process
        if src_process is None or dst_process is None:
            self._resolve(route)
            src_process, dst_process = route.src_process, route.dst_process
        src_inc = 0 if src_process is None else src_process.incarnation
        dst_inc = 0 if dst_process is None else dst_process.incarnation
        post = self._scheduler.post
        spans = self._spans
        transmit = 0.0 if loopback else model.transmit_ms(size)
        for _ in range(copies):
            delay = 0.0 if loopback else model.sample_delay(rng) + transmit
            # One transit span per datagram copy, child of whatever span
            # context caused this send — the causal edge of the hop.
            # Spans carry the payload's *size*, never its body: trace
            # artifacts must stay small under large-payload workloads.
            span = None
            if spans.enabled:
                span = spans.begin(src, layer, f"net:{port}", "transit", now)
                span.note(bytes=size)
            post(delay, self._deliver, route, port, payload, src_inc, dst_inc, span)
        if copies == 2:
            self._count_duplicated.n += 1
