"""Online invariant checking for exploration runs.

The invariants are the incremental observers of :mod:`repro.checkers`;
:class:`ObserverPanel` hooks them into the live delivery and
view-install paths of every stack, so a violated invariant
aborts the run at the exact simulated instant it first becomes
observable — with the failing schedule still small enough to shrink,
instead of thousands of events later at the end of the run.

Streams are keyed by **actor** — ``pid~incarnation`` — so a recovered
process opens a fresh stream while its dead predecessor's history stays
frozen (and stays checkable against everyone else's).  Observers watch
two streams per actor:

* the **application stream**: generic-broadcast deliveries of
  non-internal classes (what :func:`repro.checkers.app_history` sees);
* the **abcast stream**: the raw atomic-broadcast total order, which
  also carries membership ctl ops and gbcast stage closures.
"""

from __future__ import annotations

from repro.checkers import (
    AgreementPrefixObserver,
    FifoObserver,
    IncarnationObserver,
    NoDuplicatesObserver,
    Observer,
    OrderObserver,
    ViewObserver,
)
from repro.gbcast.conflict import ConflictRelation
from repro.net.message import AppMessage


class ObserverPanel:
    """Wires the full observer battery onto a group of live stacks.

    ``attach(stack)`` taps one stack's delivery and view-install paths —
    one listener per stream — and records each actor's streams as
    canonical logs (``app_log``, ``abcast_log``, ``view_log``: the raw
    material of the run fingerprint); call it again for the fresh stack
    built by crash recovery (the panel derives the actor name from the
    process's current incarnation).  All violations propagate as
    :class:`InvariantViolation` out of the simulator's event loop — the
    run fails fast.

    Two observers assert *conditional* properties, not stack guarantees,
    and are switched off for scenarios that cannot promise them (see
    ``ScenarioConfig.fifo_checkable`` / ``incarnation_checkable``):

    * ``check_fifo=False`` omits the per-sender-per-class FIFO observer —
      reliable broadcast delivers on first receipt over any path, and a
      lazy-relay suspicion-edge repair re-injects a *partial*
      (stability-pruned) copy of a sender's stream, so a repaired later
      message can legally overtake an earlier one;
    * ``check_incarnation=False`` omits the incarnation-monotonicity
      observer — a pre-crash message that a repair, loss retransmission
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
        self.app_observers: list[Observer] = [NoDuplicatesObserver()]
        if check_fifo:
            self.app_observers.append(FifoObserver())
        if check_incarnation:
            self.app_observers.append(IncarnationObserver())
        self.app_observers.append(OrderObserver(relation, "conflict-order"))
        self.prefix = AgreementPrefixObserver()
        self.abcast_observers: list[Observer] = [
            NoDuplicatesObserver(),
            self.prefix,
            OrderObserver(ConflictRelation.always(), "total-order"),
        ]
        self.view_observer = ViewObserver()
        self.app_log: dict[str, list[str]] = {}
        self.abcast_log: dict[str, list[str]] = {}
        self.view_log: dict[str, list[str]] = {}
        self.deliveries = 0
        self.abcast_deliveries = 0
        self.views_installed = 0

    @staticmethod
    def actor_name(stack) -> str:
        incarnation = stack.process.incarnation
        return f"{stack.pid}~{incarnation}" if incarnation else stack.pid

    def progress(self) -> tuple[int, int, int]:
        return (self.deliveries, self.abcast_deliveries, self.views_installed)

    def attach(self, stack, late: bool | None = None) -> None:
        actor = self.actor_name(stack)
        initial_view = stack.membership.current_view()
        if late is None:
            # A recovered incarnation or a joiner resumes mid-stream from
            # a state snapshot; an initial member starts at position 0.
            late = stack.process.incarnation > 0 or initial_view is None
        self.prefix.register(actor, late)
        app_log = self.app_log.setdefault(actor, [])
        abcast_log = self.abcast_log.setdefault(actor, [])
        view_log = self.view_log.setdefault(actor, [])

        def on_gdeliver(message: AppMessage) -> None:
            app_log.append(f"{message.id}|{message.msg_class}")
            self.deliveries += 1
            for observer in self.app_observers:
                observer.on_deliver(actor, message)

        def on_adeliver(message: AppMessage) -> None:
            abcast_log.append(f"{message.id}|{message.msg_class}")
            self.abcast_deliveries += 1
            for observer in self.abcast_observers:
                observer.on_deliver(actor, message)

        member = initial_view is not None and stack.pid in initial_view

        def on_view(view) -> None:
            nonlocal member
            view_log.append(str(view))
            self.views_installed += 1
            self.view_observer.on_view(actor, view)
            if stack.pid in view and not member:
                # Back in after an exclusion: the snapshot that came with
                # this view stands for the part of the order it missed.
                self.prefix.register(actor, late=True)
            member = stack.pid in view

        stack.gbcast.on_gdeliver(on_gdeliver)
        stack.abcast.on_adeliver(on_adeliver)
        stack.membership.on_new_view(on_view)
        # The initial view is installed at construction, before the panel
        # could see it — record it and feed it through the same check.
        if initial_view is not None:
            view_log.append(str(initial_view))
            self.views_installed += 1
            self.view_observer.on_view(actor, initial_view)

    def attach_group(self, stacks: dict) -> None:
        for pid in sorted(stacks):
            self.attach(stacks[pid])
