"""Critical-path extraction and per-layer latency attribution.

The span tree (``repro.sim.tracing.SpanLog``) records, for every event,
the chain of hops that *triggered* it — so the parent chain of a
delivery span IS the critical path of that delivery: the longest causal
chain is exactly the one that made it happen when it happened.

:func:`attribute` decomposes the time along a chain into per-layer and
per-kind segments that sum *exactly* to the chain's total: between two
consecutive chain spans, the part covered by the earlier span's own
duration is active time of its kind (``transit``, ``queue``, ``proc``,
...), the remainder is ``wait`` (the hop sat in a timer or batch window)
— both attributed to the earlier span's layer.

For an atomic-broadcast delivery the chain may be rooted at a *different*
message's trace (the consensus cascade that ordered the batch started
before this message's own hops finished).  The time between the
message's own ``abcast`` send span and the chain root is reported as
``ordering_wait_ms`` — the §4 "ordering cost" a paper-level claim cares
about.
"""

from __future__ import annotations

from typing import Any

from repro.sim.tracing import Span, SpanLog


def chain(span: Span, index: dict[str, Span]) -> list[Span]:
    """Parent chain of ``span``, root first (cycle-safe)."""
    out: list[Span] = []
    seen: set[str] = set()
    cur: Span | None = span
    while cur is not None and cur.sid not in seen:
        seen.add(cur.sid)
        out.append(cur)
        cur = index.get(cur.parent) if cur.parent is not None else None
    out.reverse()
    return out


def attribute(path: list[Span]) -> dict[str, Any]:
    """Decompose ``path[-1].start - path[0].start`` into per-layer and
    per-kind buckets; the buckets sum exactly to the total."""
    by_layer: dict[str, float] = {}
    by_kind: dict[str, float] = {}
    for i in range(len(path) - 1):
        s, nxt = path[i], path[i + 1]
        seg = nxt.start - s.start
        if seg <= 0:
            continue
        end = s.start if s.end is None else s.end
        active = min(max(end - s.start, 0.0), seg)
        wait = seg - active
        by_layer[s.layer] = by_layer.get(s.layer, 0.0) + seg
        if active > 0:
            by_kind[s.kind] = by_kind.get(s.kind, 0.0) + active
        if wait > 0:
            by_kind["wait"] = by_kind.get("wait", 0.0) + wait
    total = path[-1].start - path[0].start if path else 0.0
    return {"total_ms": total, "by_layer": by_layer, "by_kind": by_kind}


def _send_index(spanlog: SpanLog, send_name: str) -> dict[str, Span]:
    """Earliest ``send_name`` send span per message id."""
    index: dict[str, Span] = {}
    for s in spanlog.spans:
        if s.kind == "send" and s.name == send_name and s.details:
            mid = s.details.get("mid")
            if mid is not None and mid not in index:
                index[mid] = s
    return index


def delivery_paths(
    spanlog: SpanLog,
    deliver_name: str = "adeliver",
    send_name: str = "abcast",
) -> list[dict[str, Any]]:
    """One critical-path record per delivery span.

    ``complete`` means the delivery's message has a recorded send span —
    i.e. the causal tree spans the full origin-send → deliver arc.
    """
    index = spanlog.by_id()
    sends = _send_index(spanlog, send_name)
    out: list[dict[str, Any]] = []
    for d in spanlog.spans:
        if d.name != deliver_name:
            continue
        path = chain(d, index)
        root = path[0]
        attr = attribute(path)
        mid = d.details.get("mid") if d.details else None
        send = sends.get(mid) if mid is not None else None
        rec: dict[str, Any] = {
            "mid": mid,
            "pid": d.pid,
            "deliver_time": d.start,
            "hops": len(path),
            "chain_ms": attr["total_ms"],
            "by_layer": attr["by_layer"],
            "by_kind": attr["by_kind"],
            "complete": send is not None,
            "path": path,
        }
        if send is not None:
            rec["latency_ms"] = d.start - send.start
            rec["ordering_wait_ms"] = max(0.0, root.start - send.start)
        out.append(rec)
    return out


def summarize_deliveries(
    spanlog: SpanLog,
    deliver_name: str = "adeliver",
    send_name: str = "abcast",
) -> dict[str, Any]:
    """Aggregate critical-path block for the bench report (JSON-ready)."""
    paths = delivery_paths(spanlog, deliver_name, send_name)
    integrity = spanlog.check_integrity()
    n = len(paths)
    block: dict[str, Any] = {
        "deliveries": n,
        "complete": sum(1 for p in paths if p["complete"]),
        "spans": len(spanlog),
        "integrity_errors": len(integrity),
    }
    if n == 0:
        return block
    full = [p for p in paths if p["complete"]]
    block["mean_hops"] = round(sum(p["hops"] for p in paths) / n, 3)
    block["mean_chain_ms"] = round(sum(p["chain_ms"] for p in paths) / n, 3)
    if full:
        block["mean_latency_ms"] = round(
            sum(p["latency_ms"] for p in full) / len(full), 3
        )
        block["mean_ordering_wait_ms"] = round(
            sum(p["ordering_wait_ms"] for p in full) / len(full), 3
        )
    layers: dict[str, float] = {}
    kinds: dict[str, float] = {}
    for p in paths:
        for k, v in p["by_layer"].items():
            layers[k] = layers.get(k, 0.0) + v
        for k, v in p["by_kind"].items():
            kinds[k] = kinds.get(k, 0.0) + v
    block["by_layer_ms"] = {k: round(v / n, 3) for k, v in sorted(layers.items())}
    block["by_kind_ms"] = {k: round(v / n, 3) for k, v in sorted(kinds.items())}
    return block


def decision_delays(spanlog: SpanLog) -> list[float]:
    """Per-(process, instance) consensus decide delay, in ms.

    The consensus layer marks ``propose`` and ``decide`` point spans per
    instance; the delay from a process's own propose to its decide is
    the message-delay cost of ordering *that process actually paid* —
    the quantity the round-0 fast path attacks (classic rounds pay
    ESTIMATE → PROPOSE → ACK → DECIDE before anyone decides).
    Processes that learn a decision without having proposed (pure
    adopters) carry no propose span and are skipped.
    """
    proposes: dict[tuple[str, str], float] = {}
    delays: list[float] = []
    for s in spanlog.spans:
        if s.layer != "consensus" or not s.details:
            continue
        instance = s.details.get("instance")
        if instance is None:
            continue
        key = (s.pid, instance)
        if s.name == "propose":
            proposes.setdefault(key, s.start)
        elif s.name == "decide":
            t0 = proposes.get(key)
            if t0 is not None:
                delays.append(s.start - t0)
    return delays


def summarize_decisions(spanlog: SpanLog) -> dict[str, Any]:
    """Aggregate propose→decide delay block for the bench report."""
    delays = sorted(decision_delays(spanlog))
    block: dict[str, Any] = {"decides_measured": len(delays)}
    if delays:
        n = len(delays)
        block["mean_decide_ms"] = round(sum(delays) / n, 3)
        block["p50_decide_ms"] = round(delays[n // 2], 3)
        block["max_decide_ms"] = round(delays[-1], 3)
    return block


def slowest_deliveries(
    spanlog: SpanLog,
    top: int = 3,
    deliver_name: str = "adeliver",
    send_name: str = "abcast",
) -> list[dict[str, Any]]:
    """Top-``top`` deliveries by end-to-end latency (deterministic order)."""
    paths = delivery_paths(spanlog, deliver_name, send_name)
    paths.sort(
        key=lambda p: (-p.get("latency_ms", p["chain_ms"]), str(p["mid"]), p["pid"])
    )
    return paths[:top]


def render_path(rec: dict[str, Any]) -> str:
    """Human-readable rendering of one delivery's critical path."""
    lines = [
        f"delivery mid={rec['mid']} at {rec['pid']} t={rec['deliver_time']:.3f}ms"
        + (
            f"  latency={rec['latency_ms']:.3f}ms"
            f"  ordering_wait={rec['ordering_wait_ms']:.3f}ms"
            if rec.get("latency_ms") is not None
            else ""
        )
    ]
    prev_start: float | None = None
    for s in rec["path"]:
        delta = 0.0 if prev_start is None else s.start - prev_start
        prev_start = s.start
        dur = s.duration
        lines.append(
            f"  +{delta:8.3f}  t={s.start:10.3f}  {s.pid}  "
            f"[{s.layer:>10}] {s.name} ({s.kind}, {dur:.3f}ms)"
        )
    attr_layers = ", ".join(
        f"{k}={v:.3f}" for k, v in sorted(rec["by_layer"].items())
    )
    attr_kinds = ", ".join(f"{k}={v:.3f}" for k, v in sorted(rec["by_kind"].items()))
    lines.append(f"  layers: {attr_layers or '-'}")
    lines.append(f"  kinds:  {attr_kinds or '-'}")
    return "\n".join(lines)
