"""Online (incremental) invariant observers for exploration runs.

:mod:`repro.checkers` validates full delivery histories *post-hoc*; the
exploration harness instead hooks the live delivery and view-install
paths of every stack, so a violated invariant aborts the run at the
exact simulated instant it first becomes observable — with the failing
schedule still small enough to shrink, instead of thousands of events
later at the end of the run.

Streams are keyed by **actor** — ``pid~incarnation`` — so a recovered
process opens a fresh stream while its dead predecessor's history stays
frozen (and stays checkable against everyone else's).  Observers watch
two streams per actor:

* the **application stream**: generic-broadcast deliveries of
  non-internal classes (what :func:`repro.checkers.app_history` sees);
* the **abcast stream**: the raw atomic-broadcast total order, which
  also carries membership ctl ops and gbcast stage closures.

Every observer raises :class:`InvariantViolation` on the first breach.
"""

from __future__ import annotations

from typing import Callable

from repro.gbcast.conflict import ConflictRelation
from repro.net.message import AppMessage


class InvariantViolation(AssertionError):
    """A safety invariant was violated mid-run."""

    def __init__(self, invariant: str, actor: str, detail: str) -> None:
        super().__init__(f"[{invariant}] at {actor}: {detail}")
        self.invariant = invariant
        self.actor = actor
        self.detail = detail


class DeliveryObserver:
    """Base class: fed every delivery of every actor, in delivery order."""

    name = "observer"

    def on_deliver(self, actor: str, message: AppMessage) -> None:  # pragma: no cover
        raise NotImplementedError

    def fail(self, actor: str, detail: str) -> None:
        raise InvariantViolation(self.name, actor, detail)


class NoDuplicatesObserver(DeliveryObserver):
    """Integrity: no message id delivered twice on one actor's stream."""

    name = "no-duplicates"

    def __init__(self) -> None:
        self._seen: dict[str, set] = {}

    def on_deliver(self, actor: str, message: AppMessage) -> None:
        seen = self._seen.setdefault(actor, set())
        if message.id in seen:
            self.fail(actor, f"{message.id} delivered twice")
        seen.add(message.id)


class FifoObserver(DeliveryObserver):
    """Per-sender-incarnation FIFO on the application stream, per class.

    Generic broadcast only ever orders deliveries relative to the
    conflict relation: commuting messages bypass the staging machinery
    (delivered on first rbcast receipt) while conflicting ones wait for
    stage closure, so a sender's *cross-class* delivery order is
    deliberately unspecified.  Same-class order is what the eager-relay
    delivery paths preserve — streams are keyed by message class.
    """

    name = "fifo-per-incarnation"

    def __init__(self) -> None:
        self._last: dict[tuple[str, str, int, str], int] = {}

    def on_deliver(self, actor: str, message: AppMessage) -> None:
        key = (actor, message.sender, message.id.incarnation, message.msg_class)
        previous = self._last.get(key, -1)
        if message.id.seq < previous:
            self.fail(
                actor,
                f"FIFO violated for sender {message.sender} "
                f"class {message.msg_class}: {message.id} after seq {previous}",
            )
        self._last[key] = max(previous, message.id.seq)


class IncarnationObserver(DeliveryObserver):
    """Crash-recovery fencing: delivered sender incarnations never regress."""

    name = "incarnation-monotonic"

    def __init__(self) -> None:
        self._highest: dict[tuple[str, str], int] = {}

    def on_deliver(self, actor: str, message: AppMessage) -> None:
        key = (actor, message.sender)
        known = self._highest.get(key, 0)
        if message.id.incarnation < known:
            self.fail(
                actor,
                f"stale incarnation from {message.sender} at {message.id} "
                f"(already saw incarnation {known})",
            )
        self._highest[key] = max(known, message.id.incarnation)


class OrderObserver(DeliveryObserver):
    """Pairwise order agreement for conflicting messages, incrementally.

    Detects the moment two actors have both delivered a conflicting pair
    in opposite relative orders.  For each ordered actor pair ``(a, b)``
    and message class ``c`` it maintains ``max_pos[a][b][c]`` — the
    largest *b*-position over messages of class ``c`` delivered by both —
    updated from both sides (when *a* delivers something *b* already has,
    and retroactively when *b* late-delivers something *a* already has).
    When *a* delivers ``m``, any conflicting class whose recorded max
    *b*-position exceeds ``m``'s *b*-position proves an inversion.  The
    check fires at the delivery completing the inverted square, whichever
    actor performs it, so no violation escapes the run.

    With :meth:`ConflictRelation.always` over the abcast stream this is
    online total-order checking; with the scenario's relation over the
    application stream it is online conflict-order (generic broadcast)
    checking.
    """

    def __init__(self, relation: ConflictRelation, name: str) -> None:
        self.relation = relation
        self.name = name
        self._pos: dict[str, dict] = {}
        self._count: dict[str, int] = {}
        self._max_pos: dict[tuple[str, str], dict[str, int]] = {}

    def on_deliver(self, actor: str, message: AppMessage) -> None:
        positions = self._pos.setdefault(actor, {})
        my_pos = self._count.get(actor, 0)
        mid, cls = message.id, message.msg_class
        for other, other_positions in self._pos.items():
            if other == actor:
                continue
            their_pos = other_positions.get(mid)
            if their_pos is None:
                continue
            forward = self._max_pos.setdefault((actor, other), {})
            for seen_cls, seen_max in forward.items():
                if seen_max > their_pos and self.relation.conflicts(cls, seen_cls):
                    self.fail(
                        actor,
                        f"{mid}({cls}) conflicts with an earlier local delivery "
                        f"of class {seen_cls} that {other} ordered after it",
                    )
            if forward.get(cls, -1) < their_pos:
                forward[cls] = their_pos
            backward = self._max_pos.setdefault((other, actor), {})
            if backward.get(cls, -1) < my_pos:
                backward[cls] = my_pos
        positions[mid] = my_pos
        self._count[actor] = my_pos + 1


class AgreementPrefixObserver(DeliveryObserver):
    """The abcast stream of every actor is a window of one global order.

    Atomic broadcast (uniform agreement + total order) implies a single
    global delivery sequence; an original member delivers it from
    position 0, a joiner or recovered incarnation from its state-snapshot
    position onward — but always *contiguously*.  The observer grows the
    global order from whichever actor is at the frontier and checks every
    other delivery against it: a gap, a skip, or a divergent message is
    an agreement/total-order break, flagged at the first divergent
    delivery.

    A fresh actor (joiner / recovered incarnation) may momentarily be
    *ahead* of the known global frontier — its snapshot came from a peer
    whose deliveries the observer has already seen, but it can overtake
    the frontier before anyone else.  Such actors buffer deliveries until
    one matches the known order (anchoring), then the buffered suffix is
    validated retroactively.

    Contiguity holds per *membership session*, not per incarnation: an
    actor that is removed from the view while alive and admitted again
    (a recovered incarnation re-admitted directly by one member while
    another member's ``remove`` for its dead predecessor is still being
    ordered) resumes from a second state snapshot, which stands for
    everything ordered while it was out.  The panel re-registers such an
    actor as late when a view brings it back, and it anchors afresh.
    """

    name = "agreement-prefix"

    def __init__(self) -> None:
        self._order: list = []
        self._index: dict = {}
        self._cursor: dict[str, int] = {}
        self._floating: dict[str, list[AppMessage]] = {}

    def register(self, actor: str, late: bool) -> None:
        """Declare an actor's stream.  Original group members start at
        global position 0; late actors (joiners, recovered incarnations)
        anchor wherever their state snapshot placed them."""
        if late:
            self._floating.setdefault(actor, [])
        else:
            self._cursor.setdefault(actor, 0)

    def on_deliver(self, actor: str, message: AppMessage) -> None:
        if actor in self._floating:
            self._floating[actor].append(message)
            self._try_anchor(actor)
            return
        if actor not in self._cursor:
            # Unregistered stream: be conservative and treat it as late.
            self._floating[actor] = [message]
            self._try_anchor(actor)
            return
        self._step(actor, message)

    def _step(self, actor: str, message: AppMessage) -> None:
        cursor = self._cursor[actor]
        known = self._index.get(message.id)
        if known is not None:
            if known != cursor:
                self.fail(
                    actor,
                    f"delivered {message.id} at global position {known} but "
                    f"its stream is at position {cursor} (gap or reordering)",
                )
        else:
            if cursor != len(self._order):
                self.fail(
                    actor,
                    f"delivered unknown {message.id} at position {cursor} while "
                    f"the global order already extends to {len(self._order)} "
                    f"(diverged from the agreed sequence)",
                )
            self._index[message.id] = len(self._order)
            self._order.append(message.id)
            self._anchor_floating()
        self._cursor[actor] = self._index[message.id] + 1

    def _try_anchor(self, actor: str) -> None:
        # (Anchoring one actor can extend the order and, from inside,
        # anchor the others ``_anchor_floating`` was about to visit.)
        buffered = self._floating.get(actor)
        if not buffered:
            return
        anchor = self._index.get(buffered[0].id)
        if anchor is None:
            return
        del self._floating[actor]
        self._cursor[actor] = anchor
        for message in buffered:
            self._step(actor, message)

    def _anchor_floating(self) -> None:
        for actor in list(self._floating):
            self._try_anchor(actor)


class ViewObserver:
    """Membership-view monotonicity + cross-process view consistency.

    Online counterpart of :func:`repro.checkers.check_view_consistency`:
    per actor, installed view ids must strictly increase; across actors,
    a view id always names the same ordered member list.
    """

    name = "view-consistency"

    def __init__(self) -> None:
        self._last_id: dict[str, int] = {}
        self._members_of: dict[int, tuple] = {}
        self._owner_of: dict[int, str] = {}

    def on_view(self, actor: str, view) -> None:
        last = self._last_id.get(actor, -1)
        if view.id <= last:
            raise InvariantViolation(
                self.name, actor, f"view id not increasing ({view.id} after {last})"
            )
        self._last_id[actor] = view.id
        known = self._members_of.get(view.id)
        if known is None:
            self._members_of[view.id] = view.members
            self._owner_of[view.id] = actor
        elif known != view.members:
            raise InvariantViolation(
                self.name,
                actor,
                f"view {view.id} has members {view.members} but "
                f"{self._owner_of[view.id]} installed {known}",
            )


ViolationSink = Callable[[InvariantViolation], None]


class ObserverPanel:
    """Wires the full observer battery onto a group of live stacks.

    ``attach(stack)`` taps one stack's delivery and view-install paths;
    call it again for the fresh stack built by crash recovery (the panel
    derives the actor name from the process's current incarnation).  All
    violations propagate as :class:`InvariantViolation` out of the
    simulator's event loop — the run fails fast.

    Two observers assert *conditional* properties, not stack guarantees,
    and are switched off for scenarios that cannot promise them (see
    ``ScenarioConfig.fifo_checkable`` / ``incarnation_checkable``):

    * ``check_fifo=False`` omits the per-sender-per-class FIFO observer —
      reliable broadcast delivers on first receipt over any path, and a
      lazy-relay suspicion flood re-injects a *partial*
      (stability-pruned) copy of a sender's stream, so a flooded later
      message can legally overtake an earlier one;
    * ``check_incarnation=False`` omits the incarnation-monotonicity
      observer — a pre-crash message that a flood, loss retransmission
      or partition heal delivers *after* the sender's recovered
      incarnation started broadcasting is a legal straggler (uniform
      agreement requires delivering it), not a fencing bug.
    """

    def __init__(
        self,
        relation: ConflictRelation,
        check_fifo: bool = True,
        check_incarnation: bool = True,
    ) -> None:
        self.relation = relation
        self.app_observers: list[DeliveryObserver] = [
            NoDuplicatesObserver(),
            OrderObserver(relation, "conflict-order"),
        ]
        if check_incarnation:
            self.app_observers.insert(1, IncarnationObserver())
        if check_fifo:
            self.app_observers.insert(1, FifoObserver())
        self.abcast_observers: list[DeliveryObserver] = [
            NoDuplicatesObserver(),
            AgreementPrefixObserver(),
            OrderObserver(ConflictRelation.always(), "total-order"),
        ]
        self.view_observer = ViewObserver()
        self.deliveries = 0

    @staticmethod
    def actor_name(stack) -> str:
        incarnation = stack.process.incarnation
        return f"{stack.pid}~{incarnation}" if incarnation else stack.pid

    def attach(self, stack, late: bool | None = None) -> None:
        actor = self.actor_name(stack)
        if late is None:
            # A recovered incarnation or a joiner resumes mid-stream from
            # a state snapshot; an initial member starts at position 0.
            late = (
                stack.process.incarnation > 0
                or stack.membership.current_view() is None
            )
        for observer in self.abcast_observers:
            if isinstance(observer, AgreementPrefixObserver):
                observer.register(actor, late)

        def on_gdeliver(message: AppMessage) -> None:
            if message.msg_class.startswith("_"):
                return
            self.deliveries += 1
            for observer in self.app_observers:
                observer.on_deliver(actor, message)

        def on_adeliver(message: AppMessage) -> None:
            for observer in self.abcast_observers:
                observer.on_deliver(actor, message)

        initial_view = stack.membership.current_view()
        member = initial_view is not None and stack.pid in initial_view

        def on_view(view) -> None:
            nonlocal member
            self.view_observer.on_view(actor, view)
            if stack.pid in view and not member:
                # Back in after an exclusion: the snapshot that came with
                # this view stands for the part of the order it missed.
                for observer in self.abcast_observers:
                    if isinstance(observer, AgreementPrefixObserver):
                        observer.register(actor, late=True)
            member = stack.pid in view

        stack.gbcast.on_gdeliver(on_gdeliver)
        stack.abcast.on_adeliver(on_adeliver)
        stack.membership.on_new_view(on_view)
        # The initial view is installed at construction, before the panel
        # could see it — feed it through the same consistency check.
        if initial_view is not None:
            self.view_observer.on_view(actor, initial_view)

    def attach_group(self, stacks: dict) -> None:
        for pid in sorted(stacks):
            self.attach(stacks[pid])
