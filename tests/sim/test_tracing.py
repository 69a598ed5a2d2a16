"""Unit tests for the trace log and the causal span log."""

from repro.sim.tracing import SpanLog, TraceLog, TraceRecord


def test_emit_and_select():
    log = TraceLog()
    log.emit(1.0, "p00", "c1", "event_a", detail=1)
    log.emit(2.0, "p01", "c1", "event_b")
    log.emit(3.0, "p00", "c2", "event_a")
    assert len(log) == 3
    assert len(log.select(event="event_a")) == 2
    assert len(log.select(pid="p00", component="c2")) == 1
    selected = log.select(pid="p00", event="event_a")
    assert [r.time for r in selected] == [1.0, 3.0]
    assert selected[0].details == {"detail": 1}


def test_disabled_log_records_nothing():
    log = TraceLog(enabled=False)
    log.emit(1.0, "p00", "c", "e")
    assert len(log) == 0


def test_span_parent_chain_and_integrity():
    spans = SpanLog()
    root = spans.begin("p00", "abcast", "abcast", "send", 0.0, parent=None, mid="p00#1")
    child = spans.begin("p01", "net", "net:rc", "transit", 1.0, parent=root)
    assert root.sid == "p00#1" and root.trace == "p00#1"
    assert child.sid == "p00#1/1" and child.parent == "p00#1"
    assert spans.check_integrity() == []
    # A span pointing at an unrecorded parent is an orphan.
    orphan = spans.begin("p02", "net", "x", "transit", 2.0, parent=child)
    orphan.parent = "nowhere"
    problems = spans.check_integrity()
    assert problems and "orphan" in problems[0]


def test_wrap_is_passthrough_when_disabled():
    spans = SpanLog(enabled=False)
    seen = []
    assert spans.wrap("p00", "l", "n", "send", 0.0, None, seen.append, 7) is None
    assert seen == [7]
    assert len(spans) == 0


def test_clear():
    log = TraceLog()
    log.emit(1.0, "p", "c", "e")
    log.clear()
    assert len(log) == 0


def test_records_are_value_like():
    a = TraceRecord(1.0, "p", "c", "e", {"x": 1})
    b = TraceRecord(1.0, "p", "c", "e", {"x": 2})
    # Details are excluded from equality: same event identity.
    assert a == b
    assert "p/c" in repr(a)
