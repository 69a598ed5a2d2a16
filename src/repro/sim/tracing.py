"""Structured trace log and causal span tree for simulation runs.

Two complementary facilities live here:

* :class:`TraceLog` — the flat, append-only record stream protocol
  components emit (time, process, component, event, details).  Tests and
  benchmarks query it to assert ordering properties and to measure
  behaviour (e.g. the blocking window of a view change).

* :class:`SpanLog` — a causal tree of *spans* threaded through every
  message hop.  A span has a start/end time, a layer, a kind
  (``send``/``transit``/``queue``/``deliver``/...), and a parent span;
  the parent chain of any span is the chain of events that *triggered*
  it, so walking parents from a delivery span back to its root yields
  the actual critical path of that delivery.

Determinism contract: span ids are derived from incarnation-stamped
message ids plus per-trace hop counters — never from RNG or the wall
clock — and spans are recorded in scheduler execution order, so two runs
of the same seeded scenario produce byte-identical
:meth:`TraceLog.export_chrome` output.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

#: Sentinel meaning "use the ambient current span as parent".
_AMBIENT = object()


@dataclass(frozen=True)
class TraceRecord:
    """One trace event."""

    time: float
    pid: str
    component: str
    event: str
    details: dict[str, Any] = field(default_factory=dict, compare=False)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        extra = ", ".join(f"{k}={v!r}" for k, v in self.details.items())
        return f"[{self.time:10.3f}] {self.pid}/{self.component}: {self.event} {extra}"


class Span:
    """One node of a causal tree: a timed segment on one process."""

    __slots__ = ("sid", "trace", "parent", "pid", "layer", "name", "kind", "start", "end", "details")

    def __init__(
        self,
        sid: str,
        trace: str,
        parent: str | None,
        pid: str,
        layer: str,
        name: str,
        kind: str,
        start: float,
    ) -> None:
        self.sid = sid
        self.trace = trace
        self.parent = parent
        self.pid = pid
        self.layer = layer
        self.name = name
        self.kind = kind
        self.start = start
        self.end: float | None = None
        self.details: dict[str, Any] | None = None

    @property
    def duration(self) -> float:
        return (self.start if self.end is None else self.end) - self.start

    def note(self, **details: Any) -> None:
        if self.details is None:
            self.details = details
        else:
            self.details.update(details)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        end = "…" if self.end is None else f"{self.end:.3f}"
        return f"Span({self.sid} {self.layer}/{self.name} [{self.start:.3f},{end}] parent={self.parent})"


class SpanLog:
    """Causal span tree with ambient context propagation.

    The *current* span is ambient state swapped in around event
    execution (transport delivery, timer fire): any span begun while a
    context is active becomes its child.  Because the scheduler executes
    events in a deterministic order, span allocation — and therefore
    every span id — is deterministic too.

    Span ids: a message-rooted trace is keyed by the incarnation-stamped
    ``str(MsgId)`` of the message that started it; other roots are keyed
    by a per-process root counter (``"p00.r3"``).  Hops within a trace
    append a per-trace counter (``"p00#5/2"``).
    """

    def __init__(self, enabled: bool = True, max_spans: int | None = None) -> None:
        self.enabled = enabled
        self.dropped = 0
        self._current: Span | None = None
        self._hops: dict[str, int] = {}
        self._roots: dict[str, int] = {}
        self.max_spans = max_spans
        self.spans: Any = [] if max_spans is None else deque(maxlen=max_spans)

    # -- recording ------------------------------------------------------
    def begin(
        self,
        pid: str,
        layer: str,
        name: str,
        kind: str,
        start: float,
        parent: Any = _AMBIENT,
        mid: Any = None,
    ) -> Span:
        """Open a span.  ``parent`` defaults to the ambient current span;
        pass ``None`` to force a new root.  ``mid`` (a MsgId) keys a
        message-rooted trace deterministically."""
        if parent is _AMBIENT:
            parent = self._current
        if parent is None:
            if mid is not None:
                trace = str(mid)
            else:
                n = self._roots.get(pid, 0)
                self._roots[pid] = n + 1
                trace = f"{pid}.r{n}"
            # The root's sid is the trace id itself; hop counting starts
            # at 1 for its descendants.
            self._hops.setdefault(trace, 1)
            span = Span(trace, trace, None, pid, layer, name, kind, start)
        else:
            trace = parent.trace
            hop = self._hops.get(trace, 1)
            self._hops[trace] = hop + 1
            span = Span(f"{trace}/{hop}", trace, parent.sid, pid, layer, name, kind, start)
        if mid is not None:
            span.details = {"mid": str(mid)}
        if self.max_spans is not None and len(self.spans) == self.max_spans:
            self.dropped += 1
        self.spans.append(span)
        return span

    def point(
        self,
        pid: str,
        layer: str,
        name: str,
        kind: str,
        at: float,
        parent: Any = _AMBIENT,
        mid: Any = None,
    ) -> Span:
        """Record an instantaneous span (start == end)."""
        span = self.begin(pid, layer, name, kind, at, parent, mid)
        span.end = at
        return span

    def wrap(
        self,
        pid: str,
        layer: str,
        name: str,
        kind: str,
        now: float,
        mid: Any,
        fn: Callable[..., Any],
        /,
        *args: Any,
        **kwargs: Any,
    ) -> Span | None:
        """Run ``fn(*args, **kwargs)`` under a new span (instantaneous in
        simulated time — the scheduler cannot advance inside a callback)
        so everything it sends or schedules chains to it.  No-op
        passthrough when tracing is disabled."""
        if not self.enabled:
            fn(*args, **kwargs)
            return None
        span = self.begin(pid, layer, name, kind, now, mid=mid)
        self.within(span, fn, *args, **kwargs)
        span.end = now
        return span

    def within(self, span: Span, fn: Callable[..., Any], /, *args: Any, **kwargs: Any) -> None:
        """Run ``fn(*args, **kwargs)`` with ``span`` as the ambient
        context, and restore the previous context however ``fn`` ends.
        The one place the ambient context is swapped: timer fires,
        datagram deliveries and channel transmissions all come here."""
        prev = self._current
        self._current = span
        try:
            fn(*args, **kwargs)
        finally:
            self._current = prev

    def set_max_spans(self, max_spans: int | None) -> None:
        """Switch to (or resize) ring-buffer mode, keeping current spans."""
        self.max_spans = max_spans
        if max_spans is None:
            self.spans = list(self.spans)
        else:
            if len(self.spans) > max_spans:
                self.dropped += len(self.spans) - max_spans
            self.spans = deque(self.spans, maxlen=max_spans)

    # -- queries --------------------------------------------------------
    def __len__(self) -> int:
        return len(self.spans)

    def by_id(self) -> dict[str, Span]:
        return {s.sid: s for s in self.spans}

    def select(
        self,
        pid: str | None = None,
        layer: str | None = None,
        name: str | None = None,
        kind: str | None = None,
    ) -> list[Span]:
        out = []
        for s in self.spans:
            if pid is not None and s.pid != pid:
                continue
            if layer is not None and s.layer != layer:
                continue
            if name is not None and s.name != name:
                continue
            if kind is not None and s.kind != kind:
                continue
            out.append(s)
        return out

    def check_integrity(self) -> list[str]:
        """Span-tree integrity: every parent resolvable (unless the ring
        buffer evicted spans), no cycles in parent chains."""
        problems: list[str] = []
        index = self.by_id()
        for s in self.spans:
            if s.parent is not None and s.parent not in index and self.dropped == 0:
                problems.append(f"orphan span {s.sid}: parent {s.parent} not recorded")
        for s in self.spans:
            seen = set()
            cur: Span | None = s
            while cur is not None:
                if cur.sid in seen:
                    problems.append(f"cycle in parent chain at {cur.sid}")
                    break
                seen.add(cur.sid)
                cur = index.get(cur.parent) if cur.parent is not None else None
        return problems

    def clear(self) -> None:
        self.spans.clear()
        self._hops.clear()
        self._roots.clear()
        self._current = None
        self.dropped = 0


#: Ceiling on exported attribute strings.  Trace artifacts record
#: payload *sizes*, never bodies: a span note or record detail that
#: smuggles a large payload repr into ``export_chrome`` would make the
#: ``--trace-dir`` artifacts scale with payload size (a 4 KiB-payload
#: sweep would emit megabytes of repr text).  Anything longer is
#: truncated with an explicit marker so the cut is visible in the trace.
MAX_ATTR_CHARS = 120


def _json_safe(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float)):
        return value
    text = value if isinstance(value, str) else str(value)
    if len(text) > MAX_ATTR_CHARS:
        return text[:MAX_ATTR_CHARS] + f"…(+{len(text) - MAX_ATTR_CHARS} chars)"
    return text


class TraceLog:
    """In-memory trace with query helpers and an owned :class:`SpanLog`.

    ``max_records`` switches the record store to a bounded ring buffer
    (oldest evicted, counted in :attr:`dropped`) so soak runs can keep
    tracing enabled without unbounded growth.
    """

    def __init__(self, enabled: bool = True, max_records: int | None = None) -> None:
        self.enabled = enabled
        self.max_records = max_records
        self.dropped = 0
        self.records: Any = [] if max_records is None else deque(maxlen=max_records)
        self.spans = SpanLog(enabled=enabled)

    def emit(self, time: float, pid: str, component: str, event: str, **details: Any) -> None:
        if not self.enabled:
            return
        record = TraceRecord(time, pid, component, event, details)
        if self.max_records is not None and len(self.records) == self.max_records:
            self.dropped += 1
        self.records.append(record)

    def set_max_records(self, max_records: int | None) -> None:
        """Switch to (or resize) ring-buffer mode, keeping current records."""
        self.max_records = max_records
        if max_records is None:
            self.records = list(self.records)
        else:
            if len(self.records) > max_records:
                self.dropped += len(self.records) - max_records
            self.records = deque(self.records, maxlen=max_records)

    def select(
        self,
        pid: str | None = None,
        component: str | None = None,
        event: str | None = None,
    ) -> list[TraceRecord]:
        """Filter records by any combination of pid, component, event."""
        return [r for r in self._iter(pid, component, event)]

    def count(
        self,
        pid: str | None = None,
        component: str | None = None,
        event: str | None = None,
    ) -> int:
        return sum(1 for _ in self._iter(pid, component, event))

    def _iter(
        self,
        pid: str | None,
        component: str | None,
        event: str | None,
    ) -> Iterator[TraceRecord]:
        for r in self.records:
            if pid is not None and r.pid != pid:
                continue
            if component is not None and r.component != component:
                continue
            if event is not None and r.event != event:
                continue
            yield r

    def dump(self) -> str:
        """Canonical textual serialisation of the whole trace.

        One line per record, details in sorted-key order, floats in
        ``repr`` form — two runs of the same seeded scenario must produce
        byte-identical dumps (the determinism contract the scheduler and
        forked RNG streams guarantee, and that crash recovery relies on).
        """
        lines = []
        for r in self.records:
            details = ",".join(f"{k}={r.details[k]!r}" for k in sorted(r.details))
            lines.append(f"{r.time!r}|{r.pid}|{r.component}|{r.event}|{details}")
        return "\n".join(lines)

    # -- Chrome/Perfetto export ----------------------------------------
    def chrome_trace(self) -> dict[str, Any]:
        """Build a Chrome trace-event-format dict (spans as complete
        events, records as instants, cross-process causal flow arrows).

        Times are microseconds (simulated ms × 1000).  Output is fully
        deterministic: event order follows log order, pid numbering is
        sorted, and no wall-clock or RNG value appears anywhere.
        """
        pids = sorted(
            {s.pid for s in self.spans.spans} | {r.pid for r in self.records}
        )
        pid_no = {pid: i + 1 for i, pid in enumerate(pids)}
        events: list[dict[str, Any]] = []
        for pid in pids:
            events.append(
                {
                    "ph": "M",
                    "name": "process_name",
                    "pid": pid_no[pid],
                    "tid": 0,
                    "args": {"name": pid},
                }
            )
        index = self.spans.by_id()
        for s in self.spans.spans:
            args: dict[str, Any] = {"sid": s.sid, "trace": s.trace, "kind": s.kind}
            if s.parent is not None:
                args["parent"] = s.parent
            if s.details:
                for k in sorted(s.details):
                    args[k] = _json_safe(s.details[k])
            end = s.start if s.end is None else s.end
            if s.end is None:
                args["unfinished"] = True
            events.append(
                {
                    "ph": "X",
                    "name": s.name,
                    "cat": s.layer,
                    "ts": round(s.start * 1000.0, 3),
                    "dur": round((end - s.start) * 1000.0, 3),
                    "pid": pid_no[s.pid],
                    "tid": 0,
                    "args": args,
                }
            )
            parent = index.get(s.parent) if s.parent is not None else None
            if parent is not None and parent.pid != s.pid:
                # Causal flow arrow across processes (message hop).
                events.append(
                    {
                        "ph": "s",
                        "id": s.sid,
                        "name": "causal",
                        "cat": "causal",
                        "ts": round(parent.start * 1000.0, 3),
                        "pid": pid_no[parent.pid],
                        "tid": 0,
                    }
                )
                events.append(
                    {
                        "ph": "f",
                        "bp": "e",
                        "id": s.sid,
                        "name": "causal",
                        "cat": "causal",
                        "ts": round(s.start * 1000.0, 3),
                        "pid": pid_no[s.pid],
                        "tid": 0,
                    }
                )
        for r in self.records:
            events.append(
                {
                    "ph": "i",
                    "s": "t",
                    "name": f"{r.component}.{r.event}",
                    "cat": "trace",
                    "ts": round(r.time * 1000.0, 3),
                    "pid": pid_no[r.pid],
                    "tid": 0,
                    "args": {k: _json_safe(r.details[k]) for k in sorted(r.details)},
                }
            )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "spans": len(self.spans),
                "spans_dropped": self.spans.dropped,
                "records": len(self.records),
                "records_dropped": self.dropped,
            },
        }

    def export_chrome(self, path: str) -> str:
        """Write the Chrome-trace JSON to ``path`` (load in Perfetto /
        ``chrome://tracing``).  Byte-identical across same-seeded runs."""
        payload = self.chrome_trace()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
        return path

    def clear(self) -> None:
        self.records.clear()
        self.dropped = 0
        self.spans.clear()

    def __len__(self) -> int:
        return len(self.records)
