"""The gate's linear conflict-order check against the program's own.

``harness.conflict_order_violations`` stands in for
``repro.checkers.check_conflict_order`` on ``bank_commute`` (the pairwise
walk needs a minute at 8 000 ops).  A bug in it would switch the safety
gate off without a sound, so it is held to the pairwise checker here.
"""

from __future__ import annotations

import random

import harness  # first: it puts the program on sys.path
import pytest
from repro import bank_relation
from repro.checkers import check_conflict_order
from repro.gbcast.conflict import ConflictRelation
from repro.net.message import MsgIdFactory

CLASSES = ["deposit", "withdrawal"]
RELATION = bank_relation()


def _messages(classes: str) -> list:
    """One message per letter: ``d`` a deposit, ``w`` a withdrawal,
    senders alternating."""
    factories = [MsgIdFactory("p00"), MsgIdFactory("p01")]
    return [
        factories[i % 2].message(i, "deposit" if letter == "d" else "withdrawal")
        for i, letter in enumerate(classes)
    ]


def _both(history: dict) -> tuple[bool, bool]:
    """(linear check flags it, pairwise check flags it)."""
    linear = harness.conflict_order_violations(history, RELATION, CLASSES)
    return bool(linear), not check_conflict_order(history, RELATION).ok


def _swapped(log: list, i: int, j: int) -> list:
    out = list(log)
    out[i], out[j] = out[j], out[i]
    return out


def test_same_order_everywhere_is_clean():
    log = _messages("ddwdwwd")
    assert _both({"p00": log, "p01": list(log), "p02": list(log)}) == (False, False)


def test_commuting_pair_may_swap():
    log = _messages("ddwdd")
    assert _both({"p00": log, "p01": _swapped(log, 0, 1)}) == (False, False)
    assert _both({"p00": log, "p01": _swapped(log, 3, 4)}) == (False, False)


def test_swapped_conflicting_pair_is_flagged():
    log = _messages("ddwdwd")
    # deposit / withdrawal, and withdrawal / withdrawal with a deposit between.
    assert _both({"p00": log, "p01": _swapped(log, 1, 2)}) == (True, True)
    assert _both({"p00": log, "p01": _swapped(log, 2, 4)}) == (True, True)
    # The reordered member need not be the second one.
    assert _both({"p00": log, "p01": list(log), "p02": _swapped(log, 4, 5)}) == (True, True)


def test_agrees_with_the_pairwise_checker_on_random_histories():
    rng = random.Random(11)
    flagged = 0
    for _ in range(400):
        log = _messages("".join(rng.choice("dddw") for _ in range(rng.randint(2, 9))))
        other = list(log)
        for _ in range(rng.randint(0, 2)):
            other = _swapped(other, rng.randrange(len(log)), rng.randrange(len(log)))
        linear, pairwise = _both({"p00": log, "p01": other})
        assert linear == pairwise, ([m.msg_class for m in log], [m.id for m in other])
        flagged += linear
    assert 50 < flagged < 350  # both outcomes are exercised


def test_relation_without_an_ordered_class_is_refused():
    # Two classes that conflict with each other and not with themselves:
    # neither is totally ordered, so counting one cannot place the other.
    relation = ConflictRelation.build(["a", "b"], [("a", "b")])
    with pytest.raises(ValueError):
        harness.conflict_order_violations({"p00": []}, relation, ["a", "b"])
