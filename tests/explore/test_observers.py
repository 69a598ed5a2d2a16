"""Unit tests of the online invariant observers, on synthetic streams."""

import pytest

from repro.checkers import (
    AgreementPrefixObserver,
    FifoObserver,
    IncarnationObserver,
    InvariantViolation,
    NoDuplicatesObserver,
    OrderObserver,
    ViewObserver,
)
from repro.gbcast.conflict import RBCAST_ABCAST, ConflictRelation
from repro.membership.view import View
from repro.net.message import AppMessage, MsgId


def msg(sender, seq, cls="abcast", incarnation=0):
    return AppMessage(MsgId(sender, seq, incarnation), sender, ("p", seq), cls)


def test_no_duplicates_flags_second_delivery():
    observer = NoDuplicatesObserver()
    observer.on_deliver("p00", msg("p01", 0))
    observer.on_deliver("p01", msg("p01", 0))  # other actor: fine
    with pytest.raises(InvariantViolation) as err:
        observer.on_deliver("p00", msg("p01", 0))
    assert err.value.invariant == "no-duplicates"


def test_fifo_flags_seq_regression_within_incarnation():
    observer = FifoObserver()
    observer.on_deliver("p00", msg("p01", 0))
    observer.on_deliver("p00", msg("p01", 2))
    # A fresh incarnation legitimately restarts its sequence numbers.
    observer.on_deliver("p00", msg("p01", 0, incarnation=1))
    with pytest.raises(InvariantViolation):
        observer.on_deliver("p00", msg("p01", 1))


def test_fifo_ignores_cross_class_inversions():
    # Generic broadcast never orders across classes: a commuting message
    # overtaking an earlier conflicting one from the same sender is the
    # fast path working as designed, not a FIFO break.
    observer = FifoObserver()
    observer.on_deliver("p00", msg("p01", 3, cls="rbcast"))
    observer.on_deliver("p00", msg("p01", 0, cls="abcast"))
    observer.on_deliver("p00", msg("p01", 5, cls="abcast"))
    with pytest.raises(InvariantViolation):  # same class still checked
        observer.on_deliver("p00", msg("p01", 4, cls="abcast"))


def test_incarnation_never_regresses():
    observer = IncarnationObserver()
    observer.on_deliver("p00", msg("p01", 0, incarnation=1))
    with pytest.raises(InvariantViolation):
        observer.on_deliver("p00", msg("p01", 5, incarnation=0))


def test_order_observer_catches_conflicting_inversion():
    observer = OrderObserver(ConflictRelation.always(), "total-order")
    a, b = msg("p01", 0), msg("p02", 0)
    observer.on_deliver("p00", a)
    observer.on_deliver("p00", b)
    observer.on_deliver("p01", b)
    with pytest.raises(InvariantViolation) as err:
        observer.on_deliver("p01", a)
    assert err.value.invariant == "total-order"


def test_order_observer_catches_late_position_square():
    """The inversion closes on the *first* actor's late delivery: without
    retroactive position updates this square goes unnoticed."""
    observer = OrderObserver(ConflictRelation.always(), "total-order")
    e1, e2 = msg("p01", 0), msg("p02", 0)
    observer.on_deliver("X", e1)
    observer.on_deliver("Y", e2)
    observer.on_deliver("Y", e1)  # Y: e2 < e1
    with pytest.raises(InvariantViolation):
        observer.on_deliver("X", e2)  # X: e1 < e2 — square complete


def test_order_observer_ignores_commuting_inversion():
    observer = OrderObserver(RBCAST_ABCAST, "conflict-order")
    a, b = msg("p01", 0, cls="rbcast"), msg("p02", 0, cls="rbcast")
    observer.on_deliver("p00", a)
    observer.on_deliver("p00", b)
    observer.on_deliver("p01", b)
    observer.on_deliver("p01", a)  # rbcast/rbcast commute: legal


def test_agreement_prefix_flags_gap_and_divergence():
    observer = AgreementPrefixObserver()
    observer.register("p00", late=False)
    observer.register("p01", late=False)
    a, b, c = msg("p01", 0), msg("p02", 0), msg("p03", 0)
    observer.on_deliver("p00", a)
    observer.on_deliver("p00", b)
    observer.on_deliver("p01", a)
    with pytest.raises(InvariantViolation):  # skipped b
        observer.on_deliver("p01", c)


def test_agreement_prefix_initial_member_must_start_at_zero():
    observer = AgreementPrefixObserver()
    observer.register("p00", late=False)
    observer.register("p01", late=False)
    a, b = msg("p01", 0), msg("p02", 0)
    observer.on_deliver("p00", a)
    observer.on_deliver("p00", b)
    with pytest.raises(InvariantViolation):  # missing prefix [a]
        observer.on_deliver("p01", b)


def test_agreement_prefix_late_actor_anchors_mid_stream():
    observer = AgreementPrefixObserver()
    observer.register("p00", late=False)
    observer.register("p02~1", late=True)
    a, b, c = msg("p01", 0), msg("p02", 1), msg("p03", 0)
    observer.on_deliver("p00", a)
    observer.on_deliver("p00", b)
    # Recovered incarnation resumes from its snapshot: starts at b.
    observer.on_deliver("p02~1", b)
    observer.on_deliver("p02~1", c)
    observer.on_deliver("p00", c)
    # ...but once anchored it must stay contiguous.
    with pytest.raises(InvariantViolation):
        observer.on_deliver("p02~1", a)


def test_agreement_prefix_late_actor_may_run_ahead_before_anchoring():
    """A joiner can overtake the known frontier while only it has
    delivered anything; its buffer is validated once a peer catches up."""
    observer = AgreementPrefixObserver()
    observer.register("p00", late=False)
    observer.register("p03~1", late=True)
    a, b = msg("p01", 0), msg("p02", 0)
    observer.on_deliver("p03~1", a)
    observer.on_deliver("p03~1", b)
    observer.on_deliver("p00", a)  # anchors the floating buffer at 0
    observer.on_deliver("p00", b)


def test_agreement_prefix_two_late_actors_anchor_on_one_delivery():
    """Two recovered incarnations both ran ahead of the frontier.  The
    delivery that anchors the first extends the order, which anchors the
    second from inside the first one's replay (a KeyError until PR 24,
    met by the shrinker on explore seed 1237)."""
    observer = AgreementPrefixObserver()
    observer.register("p00", late=False)
    observer.register("p02~1", late=True)
    observer.register("p00~1", late=True)
    a, b, c = msg("p01", 0), msg("p01", 1), msg("p01", 2)
    observer.on_deliver("p02~1", b)
    observer.on_deliver("p02~1", c)
    observer.on_deliver("p00~1", c)
    observer.on_deliver("p00", a)
    observer.on_deliver("p00", b)  # anchors p02~1, whose c anchors p00~1
    assert observer._floating == {}
    with pytest.raises(InvariantViolation):
        observer.on_deliver("p00~1", a)


def test_agreement_prefix_readmitted_actor_anchors_afresh():
    """An actor excluded while alive and admitted again resumes from a
    second snapshot (the panel re-registers it as late on the view that
    brings it back): the part of the order it missed is not a gap, but
    contiguity holds again from the new anchor."""
    observer = AgreementPrefixObserver()
    observer.register("p00", late=False)
    observer.register("p03~1", late=True)
    a, b, c, d = msg("p01", 0), msg("p02", 0), msg("p01", 1), msg("p02", 1)
    for m in (a, b, c, d):
        observer.on_deliver("p00", m)
    observer.on_deliver("p03~1", a)
    with pytest.raises(InvariantViolation):  # same session: b, c missing
        observer.on_deliver("p03~1", d)
    observer = AgreementPrefixObserver()
    observer.register("p00", late=False)
    observer.register("p03~1", late=True)
    for m in (a, b, c, d):
        observer.on_deliver("p00", m)
    observer.on_deliver("p03~1", a)
    observer.register("p03~1", late=True)  # removed, then back in a view
    observer.on_deliver("p03~1", c)
    with pytest.raises(InvariantViolation):
        observer.on_deliver("p03~1", a)


def test_view_observer_flags_id_reuse_with_different_members():
    observer = ViewObserver()
    observer.on_view("p00", View(1, ("p00", "p01")))
    observer.on_view("p01", View(1, ("p00", "p01")))
    with pytest.raises(InvariantViolation):
        observer.on_view("p02", View(1, ("p00", "p02")))


def test_view_observer_flags_non_increasing_ids():
    observer = ViewObserver()
    observer.on_view("p00", View(2, ("p00",)))
    with pytest.raises(InvariantViolation):
        observer.on_view("p00", View(2, ("p00",)))


def test_conditional_observers_are_scoped_by_the_scenario():
    from dataclasses import replace

    from repro.core.new_stack import StackConfig
    from repro.explore.observers import ObserverPanel
    from repro.explore.scenario import ScenarioConfig
    from repro.net.topology import LinkModel
    from repro.workload.generators import FaultEvent, FaultPlan

    eager = ScenarioConfig(seed=0, stack=StackConfig(relay_policy="eager"))
    lazy = replace(eager, stack=StackConfig(relay_policy="lazy"))
    assert eager.fifo_checkable()
    assert not lazy.fifo_checkable()  # false suspicions can flood at any time

    recovery = FaultPlan(
        [
            FaultEvent(at=100.0, kind="crash", target="p01"),
            FaultEvent(at=400.0, kind="recover", target="p01"),
        ]
    )
    # No recoveries: trivially checkable whatever the paths look like.
    assert replace(lazy, link=LinkModel(drop_prob=0.05)).incarnation_checkable()
    # Prompt paths: eager + loss-free + no partitions.
    assert replace(eager, plan=recovery).incarnation_checkable()
    assert not replace(lazy, plan=recovery).incarnation_checkable()
    assert not replace(
        eager, plan=recovery, link=LinkModel(drop_prob=0.02)
    ).incarnation_checkable()
    partitioned = FaultPlan(
        recovery.events
        + [
            FaultEvent(at=150.0, kind="partition", target=[["p00"], ["p01", "p02"]]),
            FaultEvent(at=250.0, kind="heal"),
        ]
    )
    assert not replace(eager, plan=partitioned).incarnation_checkable()

    panel = ObserverPanel(RBCAST_ABCAST, check_fifo=False, check_incarnation=False)
    names = [type(o).__name__ for o in panel.app_observers]
    assert "FifoObserver" not in names
    assert "IncarnationObserver" not in names
    full = ObserverPanel(RBCAST_ABCAST)
    assert "FifoObserver" in [type(o).__name__ for o in full.app_observers]
