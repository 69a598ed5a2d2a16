"""Safety invariants of group-communication histories, one implementation each.

Every invariant is an incremental **observer**: fed each actor's
deliveries (or view installs) in local order, it raises
:class:`InvariantViolation` at the first breach.  The exploration
harness taps them onto live stacks
(:class:`repro.explore.observers.ObserverPanel`), so a run fails at the
simulated instant a violation becomes observable; the ``check_*``
functions feed them a finished history, actor by actor, and return a
:class:`CheckResult` holding the first violation — usable from tests,
benchmarks, soak runs, or by downstream users validating their own
deployments of the library.  Every pair of actors is compared, in time
linear in the history (times the number of actors and message classes).

A *history* is a mapping ``actor -> [AppMessage, ...]`` in local
delivery order (internal ``_``-prefixed control classes should be
filtered out by the caller or via :func:`app_history`).  An actor is a
pid, or ``pid~incarnation`` for a recovered process, whose new
incarnation is a stream of its own.  :func:`check_agreement` alone
compares final delivered sets, which only makes sense once a run has
settled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.gbcast.conflict import ConflictRelation
from repro.net.message import AppMessage


@dataclass
class CheckResult:
    """Outcome of a checker: ``ok`` plus human-readable violations."""

    ok: bool
    violations: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok

    @staticmethod
    def clean() -> "CheckResult":
        return CheckResult(True)

    def fail(self, message: str) -> None:
        self.ok = False
        self.violations.append(message)


def app_history(stack) -> list[AppMessage]:
    """Application-level delivery sequence of a new-architecture stack."""
    return [m for m, _path in stack.gbcast.delivered_log]


# ----------------------------------------------------------------------
# The observers
# ----------------------------------------------------------------------
class InvariantViolation(AssertionError):
    """A safety invariant was violated."""

    def __init__(self, invariant: str, actor: str, detail: str) -> None:
        super().__init__(f"[{invariant}] at {actor}: {detail}")
        self.invariant = invariant
        self.actor = actor
        self.detail = detail


class Observer:
    """Base class: an invariant, checked one delivery (``on_deliver``)
    or view install (``on_view``) at a time."""

    name = "observer"

    def fail(self, actor: str, detail: str) -> None:
        raise InvariantViolation(self.name, actor, detail)


class NoDuplicatesObserver(Observer):
    """Integrity: no message id delivered twice on one actor's stream."""

    name = "no-duplicates"

    def __init__(self) -> None:
        self._seen: dict[str, set] = {}

    def on_deliver(self, actor: str, message: AppMessage) -> None:
        seen = self._seen.setdefault(actor, set())
        if message.id in seen:
            self.fail(actor, f"{message.id} delivered twice")
        seen.add(message.id)


class FifoObserver(Observer):
    """Per-sender FIFO, one session per sender incarnation and class.

    A recovered process restarts its sequence numbers, so its new
    incarnation opens a fresh session (fencing the old one is
    :class:`IncarnationObserver`'s job).  Generic broadcast orders a
    sender's messages only relative to the conflict relation: commuting
    ones bypass the staging machinery conflicting ones wait on, so the
    *cross-class* order is unspecified and sessions are keyed by class.
    :func:`check_fifo` asserts the cross-class order a FIFO broadcast
    promises.
    """

    name = "fifo-per-incarnation"

    def __init__(self) -> None:
        self._last: dict[tuple, int] = {}

    def _session(self, actor: str, message: AppMessage) -> tuple:
        return actor, message.sender, message.id.incarnation, message.msg_class

    def on_deliver(self, actor: str, message: AppMessage) -> None:
        key = self._session(actor, message)
        previous = self._last.get(key, -1)
        if message.id.seq < previous:
            self.fail(
                actor,
                f"FIFO violated for sender {message.sender} "
                f"class {message.msg_class}: {message.id} after seq {previous}",
            )
        self._last[key] = max(previous, message.id.seq)


class _SenderFifoObserver(FifoObserver):
    """One session per sender incarnation, across classes."""

    def _session(self, actor: str, message: AppMessage) -> tuple:
        return actor, message.sender, message.id.incarnation


class IncarnationObserver(Observer):
    """Crash-recovery fencing: per sender, delivered incarnations never
    go backwards — once any message from incarnation ``i`` is delivered,
    no message minted by an earlier (dead) incarnation may follow."""

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


class OrderObserver(Observer):
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
    actor performs it, so no violation escapes.

    With :meth:`ConflictRelation.always` this is total-order checking;
    with a generic-broadcast relation it is conflict-order checking.
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


class AgreementPrefixObserver(Observer):
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
        # An unregistered stream is conservatively treated as late.
        if actor in self._floating or actor not in self._cursor:
            self._floating.setdefault(actor, []).append(message)
            self._try_anchor(actor)
        else:
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


class ViewObserver(Observer):
    """Cross-process view consistency for abcast-based membership.

    Because view installation is driven by the abcast total order, the
    same view id always names the same ordered member list, at every
    actor that installs it; and each actor installs strictly increasing
    view ids (one that recovers or joins mid-stream may *skip* ids — it
    resumes from a state snapshot — but may never go back).
    """

    name = "view-consistency"

    def __init__(self) -> None:
        self._last_id: dict[str, int] = {}
        self._members_of: dict[int, tuple] = {}
        self._owner_of: dict[int, str] = {}

    def on_view(self, actor: str, view) -> None:
        last = self._last_id.get(actor, -1)
        if view.id <= last:
            self.fail(actor, f"view id not increasing ({view.id} after {last})")
        self._last_id[actor] = view.id
        known = self._members_of.get(view.id)
        if known is None:
            self._members_of[view.id] = view.members
            self._owner_of[view.id] = actor
        elif known != view.members:
            self.fail(
                actor,
                f"view {view.id} has members {view.members} but "
                f"{self._owner_of[view.id]} installed {known}",
            )


# ----------------------------------------------------------------------
# The checkers: the observers fed a finished history
# ----------------------------------------------------------------------
def _first_violation(histories: dict, feed) -> CheckResult:
    """Feed each actor's sequence to ``feed(actor, item)``, actors in
    sorted order; the first violation raised, as a CheckResult."""
    try:
        for actor in sorted(histories):
            for item in histories[actor]:
                feed(actor, item)
    except InvariantViolation as violation:
        return CheckResult(False, [f"{violation.actor}: {violation.detail}"])
    return CheckResult.clean()


def check_no_duplicates(history: dict[str, list[AppMessage]]) -> CheckResult:
    """Integrity: no message delivered twice at the same process."""
    return _first_violation(history, NoDuplicatesObserver().on_deliver)


def check_agreement(history: dict[str, list[AppMessage]]) -> CheckResult:
    """(Uniform) agreement among the given processes: same delivered set."""
    result = CheckResult.clean()
    sets = {pid: {m.id for m in seq} for pid, seq in history.items()}
    reference_pid = next(iter(sets), None)
    if reference_pid is None:
        return result
    reference = sets[reference_pid]
    for pid, delivered in sets.items():
        if delivered != reference:
            missing = reference - delivered
            extra = delivered - reference
            result.fail(f"{pid}: differs from {reference_pid} (missing={missing}, extra={extra})")
    return result


def check_total_order(history: dict[str, list[AppMessage]]) -> CheckResult:
    """Same relative order for every pair two processes both delivered."""
    observer = OrderObserver(ConflictRelation.always(), "total-order")
    return _first_violation(history, observer.on_deliver)


def check_conflict_order(
    history: dict[str, list[AppMessage]], relation: ConflictRelation
) -> CheckResult:
    """Generic broadcast's partial order: conflicting pairs agree
    everywhere; non-conflicting pairs are unconstrained."""
    return _first_violation(history, OrderObserver(relation, "conflict-order").on_deliver)


def check_fifo(history: dict[str, list[AppMessage]]) -> CheckResult:
    """Per-sender FIFO across classes: each sender incarnation's messages
    in sending (MsgId) order.  A recovered sender's new incarnation
    opens a fresh session (fenced by :func:`check_incarnation_monotonic`)."""
    return _first_violation(history, _SenderFifoObserver().on_deliver)


def check_incarnation_monotonic(history: dict[str, list[AppMessage]]) -> CheckResult:
    """Crash-recovery fencing: see :class:`IncarnationObserver`."""
    return _first_violation(history, IncarnationObserver().on_deliver)


def check_view_consistency(view_histories: dict[str, list]) -> CheckResult:
    """``view_histories`` maps actor to the :class:`repro.membership.view.View`
    objects it installed, in order; see :class:`ViewObserver`."""
    return _first_violation(view_histories, ViewObserver().on_view)


def check_prefix(shorter: list[AppMessage], longer: list[AppMessage]) -> CheckResult:
    """Uniform total order for a crashed process: its log ``shorter`` must
    be an exact prefix of a correct process's log ``longer`` — the same
    messages at the same positions, and none past the end of ``longer``."""
    observer = AgreementPrefixObserver()
    observer.register("longer", late=False)
    observer.register("shorter", late=False)
    # Sorted actor order feeds ``longer`` first: ``shorter`` is checked
    # against the order it laid down.
    result = _first_violation({"longer": longer, "shorter": shorter}, observer.on_deliver)
    if result and len(shorter) > len(longer):
        result.fail(f"shorter: {shorter[len(longer)].id} delivered past the end of longer")
    return result


def check_all(
    history: dict[str, list[AppMessage]],
    relation: ConflictRelation | None = None,
    total_order: bool = False,
    view_histories: dict[str, list] | None = None,
) -> CheckResult:
    """Run the standard battery; merge the first violation of each check."""
    results = [
        check_no_duplicates(history),
        check_agreement(history),
        check_fifo(history),
        check_incarnation_monotonic(history),
    ]
    if relation is not None:
        results.append(check_conflict_order(history, relation))
    if total_order:
        results.append(check_total_order(history))
    if view_histories is not None:
        results.append(check_view_consistency(view_histories))
    return CheckResult(all(results), [v for r in results for v in r.violations])
