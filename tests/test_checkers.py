"""Unit tests for the history checkers (pure functions)."""

import random
import time

from repro import bank_relation
from repro.checkers import (
    CheckResult,
    check_agreement,
    check_all,
    check_conflict_order,
    check_fifo,
    check_incarnation_monotonic,
    check_no_duplicates,
    check_prefix,
    check_total_order,
    check_view_consistency,
)
from repro.gbcast.conflict import ConflictRelation
from repro.net.message import AppMessage, MsgId


def msg(sender, seq, cls="default", incarnation=0):
    return AppMessage(
        MsgId(sender, seq, incarnation), sender, f"{sender}:{seq}", cls
    )


A0, A1, A2 = msg("a", 0), msg("a", 1), msg("a", 2)
B0, B1 = msg("b", 0), msg("b", 1)


def test_no_duplicates():
    assert check_no_duplicates({"p": [A0, A1]})
    bad = check_no_duplicates({"p": [A0, A0]})
    assert bad.violations == ["p: a#0 delivered twice"]


def test_agreement():
    assert check_agreement({"p": [A0, B0], "q": [B0, A0]})
    bad = check_agreement({"p": [A0, B0], "q": [A0]})
    assert not bad and "q" in bad.violations[0]


def test_agreement_violation_names_missing_and_extra_messages():
    # The message pinpoints which deliveries differ, both directions.
    bad = check_agreement({"p": [A0, B0], "q": [A0, A1]})
    assert len(bad.violations) == 1
    text = bad.violations[0]
    assert text.startswith("q: differs from p")
    assert repr(B0.id) in text and repr(A1.id) in text
    assert "missing=" in text and "extra=" in text


def test_total_order():
    assert check_total_order({"p": [A0, B0, A1], "q": [A0, B0, A1]})
    bad = check_total_order({"p": [A0, B0], "q": [B0, A0]})
    assert not bad
    # Subsets are fine as long as the relative order matches.
    assert check_total_order({"p": [A0, B0, A1], "q": [A0, A1]})


def test_conflict_order():
    rel = ConflictRelation.build(["x", "y"], [("x", "y"), ("y", "y")])
    x0, x1 = msg("a", 0, "x"), msg("b", 0, "x")
    y0 = msg("c", 0, "y")
    # x/x may reorder freely...
    assert check_conflict_order({"p": [x0, x1, y0], "q": [x1, x0, y0]}, rel)
    # ...but x/y must agree.
    bad = check_conflict_order({"p": [x0, y0], "q": [y0, x0]}, rel)
    assert not bad and "conflicts with" in bad.violations[0]


def test_fifo():
    assert check_fifo({"p": [A0, B0, A1, A2]})
    bad = check_fifo({"p": [A1, A0]})
    assert not bad and "FIFO" in bad.violations[0]
    # Interleaving across senders is irrelevant.
    assert check_fifo({"p": [B0, A0, B1, A1]})


def test_fifo_violation_names_process_sender_and_message():
    bad = check_fifo({"p03": [A2, A0]})
    assert bad.violations == ["p03: FIFO violated for sender a class default: a#0 after seq 2"]


def test_fifo_is_scoped_per_incarnation():
    # A recovered sender restarts at seq 0 under a new incarnation: this
    # is a fresh FIFO session, not a violation...
    recovered0 = msg("a", 0, incarnation=1)
    recovered1 = msg("a", 1, incarnation=1)
    assert check_fifo({"p": [A0, A1, recovered0, recovered1]})
    # ...but order violations *within* an incarnation still count.
    bad = check_fifo({"p": [A0, recovered1, recovered0]})
    assert not bad and "a~1#0" in bad.violations[0]


def test_incarnation_monotonic():
    recovered = msg("a", 0, incarnation=1)
    assert check_incarnation_monotonic({"p": [A0, A1, recovered]})
    # Once incarnation 1 is seen from "a", incarnation-0 traffic is stale.
    bad = check_incarnation_monotonic({"p": [A0, recovered, A1]})
    assert not bad
    assert bad.violations == [
        "p: stale incarnation from a at a#1 (already saw incarnation 1)"
    ]


def test_total_order_violation_message():
    bad = check_total_order({"p": [A0, B0], "q": [B0, A0]})
    assert bad.violations == [
        "q: a#0(default) conflicts with an earlier local delivery "
        "of class default that p ordered after it"
    ]


def test_conflict_order_violation_names_classes_and_reference():
    rel = ConflictRelation.build(["x", "y"], [("x", "y")])
    x0, y0 = msg("a", 0, "x"), msg("c", 0, "y")
    bad = check_conflict_order({"p": [x0, y0], "q": [y0, x0]}, rel)
    assert bad.violations == [
        "q: a#0(x) conflicts with an earlier local delivery of class y that p ordered after it"
    ]


def test_total_order_compares_members_the_first_one_never_met():
    # p delivered neither message of the pair q and r order differently:
    # a walk against p alone has nothing to compare them with.
    history = {"p": [A0], "q": [A0, B0, B1], "r": [A0, B1, B0]}
    assert check_total_order(history).violations == [
        "r: b#0(default) conflicts with an earlier local delivery "
        "of class default that q ordered after it"
    ]


def test_conflict_order_compares_members_the_first_one_never_met():
    rel = ConflictRelation.build(["x", "y"], [("x", "y")])
    x0, y0 = msg("a", 0, "x"), msg("c", 0, "y")
    assert not check_conflict_order({"p": [A0], "q": [x0, y0], "r": [y0, x0]}, rel)
    # A commuting pair may still swap between them.
    x1 = msg("b", 0, "x")
    assert check_conflict_order({"p": [A0], "q": [x0, x1], "r": [x1, x0]}, rel)


def test_conflict_order_is_linear_on_a_bank_sized_history():
    # 8 000 deposits and withdrawals (one in twenty) at three members,
    # one deposit / withdrawal pair swapped at the last member: the size
    # at which a walk over all pairs took a minute.
    rng = random.Random(7)
    rel = bank_relation()
    log = [
        msg(f"p{i % 3:02d}", i // 3, "withdrawal" if rng.random() < 0.05 else "deposit")
        for i in range(8_000)
    ]
    w = next(i for i in range(4_000, 8_000) if log[i].msg_class == "withdrawal")
    assert log[w - 1].msg_class == "deposit"
    swapped = log[: w - 1] + [log[w], log[w - 1]] + log[w + 1 :]
    assert check_conflict_order({"p00": log, "p01": list(log), "p02": list(log)}, rel)
    started = time.perf_counter()
    bad = check_conflict_order({"p00": log, "p01": list(log), "p02": swapped}, rel)
    elapsed = time.perf_counter() - started
    assert not bad and bad.violations[0].startswith(f"p02: {log[w - 1].id}(deposit)")
    assert elapsed < 5.0, elapsed


def test_fifo_spans_classes():
    # Plain sender FIFO: a sender's order holds across message classes
    # (the explore panel's observer narrows it to one class).
    assert not check_fifo({"p": [msg("a", 1, "x"), msg("a", 0, "y")]})


def test_prefix():
    assert check_prefix([A0, A1], [A0, A1, A2])
    assert check_prefix([], [A0])
    assert not check_prefix([A1], [A0, A1])
    # An exact prefix: nothing past the end of the longer log either.
    assert check_prefix([A0, A1], [A0]).violations == [
        "shorter: a#1 delivered past the end of longer"
    ]


def test_prefix_violation_message():
    bad = check_prefix([A1], [A0, A1])
    assert bad.violations == [
        "shorter: delivered a#1 at global position 1 but its stream is at "
        "position 0 (gap or reordering)"
    ]


def test_check_all_merges_violations():
    rel = ConflictRelation.always()
    history = {"p": [A0, A0], "q": [A1]}
    result = check_all(history, relation=rel, total_order=True)
    assert not result
    assert len(result.violations) >= 2


def test_check_all_includes_incarnation_monotonicity():
    recovered = msg("a", 0, incarnation=1)
    result = check_all({"p": [A0, recovered, A1], "q": [A0, recovered, A1]})
    assert not result
    assert any("stale incarnation" in v for v in result.violations)


def test_check_result_bool_protocol():
    ok = CheckResult.clean()
    assert ok and ok.ok
    ok.fail("oops")
    assert not ok and ok.violations == ["oops"]


def test_view_consistency_accepts_skips_but_not_regressions():
    from repro.membership.view import View

    clean = {
        "p00": [View(0, ("p00", "p01")), View(1, ("p00",))],
        "p01~1": [View(1, ("p00",))],  # recovered: resumed mid-stream
    }
    assert check_view_consistency(clean).ok

    regressing = {"p00": [View(1, ("p00",)), View(1, ("p00",))]}
    assert not check_view_consistency(regressing).ok


def test_view_consistency_flags_divergent_members_for_same_id():
    from repro.membership.view import View

    histories = {
        "p00": [View(1, ("p00", "p01"))],
        "p01": [View(1, ("p00", "p02"))],
    }
    result = check_view_consistency(histories)
    assert not result.ok
    assert "view 1" in result.violations[0]


def test_check_all_merges_view_consistency():
    from repro.membership.view import View

    histories = {"p00": [View(1, ("p00",)), View(0, ("p00", "p01"))]}
    result = check_all({}, view_histories=histories)
    assert not result.ok
