"""The scheduler as it was before every heap entry became one flat tuple:
``Timer`` objects with nine slots next to posted tuples, and lazy heap
compaction — verbatim, for ``test_scheduler_reference.py``, which drives
it beside :mod:`repro.sim.scheduler` with the same random programs.

Set ``COMPACT_MIN_CANCELLED = 10**9`` on an instance to keep it from
compacting, so that its ``pending()`` counts what the flat heap holds.
"""

from __future__ import annotations

import heapq
import itertools
from heapq import heappush
from typing import Any, Callable

#: Slack for "has this deadline come?": a timer armed ``deadline - now``
#: ahead fires at ``now + (deadline - now)``, which float rounding can
#: leave a hair short of ``deadline``; it must not find nothing due and
#: re-arm for zero delay.
DUE_SLACK = 1e-6


class Timer:
    """Handle for a scheduled callback; supports cancellation.

    Returned by :meth:`Scheduler.schedule` and :meth:`Scheduler.at`.
    Cancelling an already-fired or already-cancelled timer is a no-op.

    A timer a process arms carries that ``owner``, its ``incarnation``
    and the span context ``ctx`` of the moment: the fence (see
    :class:`TimerOwner`).
    """

    __slots__ = ("when", "callback", "args", "cancelled", "fired", "_sched", "owner",
                 "incarnation", "ctx")

    def __init__(
        self,
        when: float,
        callback: Callable[..., None],
        args: tuple,
        sched: "Scheduler | None" = None,
        owner: Any = None,
        incarnation: int = 0,
        ctx: Any = None,
    ):
        self.when = when
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False
        self._sched = sched
        self.owner = owner
        self.incarnation = incarnation
        self.ctx = ctx

    def cancel(self) -> None:
        if not self.cancelled and not self.fired:
            self.cancelled = True
            if self._sched is not None:
                self._sched._note_cancelled()

    @property
    def active(self) -> bool:
        return not self.cancelled and not self.fired

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "fired" if self.fired else ("cancelled" if self.cancelled else "pending")
        return f"Timer(when={self.when:.3f}, {state})"


class TimerOwner:
    """Timers and posted events fenced by their owner's incarnation — the
    base of :class:`~repro.sim.process.Process`.

    The owner provides ``_scheduler``, ``crashed``, ``incarnation`` and
    ``_spans`` (its span log).  An entry it arms carries the owner, the
    incarnation of the moment and the span context of the moment;
    :meth:`Scheduler.run` checks and restores them.  Stamp and check both
    live in this module.
    """

    __slots__ = ()

    _scheduler: "Scheduler"
    crashed: bool
    incarnation: int
    _spans: Any

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> Timer:
        """Schedule a callback that is suppressed if this process crashes.

        The callback is also fenced by incarnation: a timer set by
        incarnation ``i`` never fires once the process has recovered
        into incarnation ``i+1`` (the old incarnation's event loop died
        with it).

        The ambient causal-span context active at scheduling time is
        captured and re-activated around the callback, so spans begun by
        timer-driven work chain back to the event that armed the timer.
        """
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        scheduler = self._scheduler
        when = scheduler._now + delay
        timer = Timer(
            when, callback, args, scheduler, self, self.incarnation, self._spans._current
        )
        heappush(scheduler._queue, (when, next(scheduler._counter), timer))
        return timer

    def post(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """:meth:`schedule` for an event nobody cancels: the same
        incarnation fence and span context, no :class:`Timer` (an owned
        :meth:`Scheduler.post`)."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        scheduler = self._scheduler
        heappush(scheduler._queue, (
            scheduler._now + delay, next(scheduler._counter),
            (callback, args, self, self.incarnation, self._spans._current),
        ))


class Scheduler:
    """A deterministic event loop over simulated time.

    Queue entries are ``(when, tick, Timer)`` for cancellable timers, or
    ``(when, tick, (callback, args, owner, incarnation, ctx))`` for
    fire-and-forget events posted via :meth:`post` (ownerless) or
    :meth:`TimerOwner.post` — the tuple-packed
    fast path used for per-datagram delivery hops, which skips the Timer
    allocation and its state bookkeeping.  Ties are still broken by the
    insertion tick, so the two kinds interleave deterministically.

    **The incarnation fence lives here.**  Both kinds carry the same
    three fields (see :class:`Timer`): an owner process (a
    :class:`TimerOwner`, or ``None``), the incarnation that armed the
    entry, and the span context to restore.  :meth:`run` skips
    the callback of an entry whose owner crashed or recovered since; the
    skipped entry still counts as an event and its timer as fired.
    """

    #: Events executed across every Scheduler instance in this process —
    #: lets the benchmark harness meter scenarios that build (several)
    #: worlds internally.  Maintained in batches by :meth:`run` (not per
    #: event — that would tax the hot loop).  Wall-clock-free:
    #: determinism is unaffected.
    total_events_processed = 0

    #: Compaction policy for cancelled timers (see :meth:`_note_cancelled`):
    #: below the floor a linear sweep is cheaper than the bookkeeping;
    #: above it, compact once cancelled entries exceed the fraction.
    COMPACT_MIN_CANCELLED = 64
    COMPACT_FRACTION = 0.5

    def __init__(self) -> None:
        self._queue: list[tuple[float, int, Timer | tuple]] = []
        self._counter = itertools.count()
        self._now = 0.0
        self._events_processed = 0
        self._cancelled_pending = 0
        self.compactions = 0

    @property
    def now(self) -> float:
        """Current simulated time in milliseconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> Timer:
        """Schedule ``callback(*args)`` to run ``delay`` ms from now."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        # :meth:`at` inlined: every protocol timer comes through here.
        when = self._now + delay
        timer = Timer(when, callback, args, self)
        heapq.heappush(self._queue, (when, next(self._counter), timer))
        return timer

    def at(self, when: float, callback: Callable[..., None], *args: Any) -> Timer:
        """Schedule ``callback(*args)`` at absolute simulated time ``when``."""
        if when < self._now:
            raise ValueError(f"cannot schedule in the past: {when} < {self._now}")
        timer = Timer(when, callback, args, self)
        heapq.heappush(self._queue, (when, next(self._counter), timer))
        return timer

    def _note_cancelled(self) -> None:
        """Called by :meth:`Timer.cancel`; triggers lazy heap compaction.

        Long-delay cancelled timers (FD heartbeats under suppression)
        would otherwise linger until their deadline pops, bloating
        :meth:`pending` and every heap operation.  When cancelled entries
        dominate, rebuild the heap without them.  Determinism is
        preserved: entries are ``(when, tick)``-keyed with unique ticks,
        so pop order after ``heapify`` is identical to lazy popping.
        """
        self._cancelled_pending += 1
        if (
            self._cancelled_pending >= self.COMPACT_MIN_CANCELLED
            and self._cancelled_pending >= len(self._queue) * self.COMPACT_FRACTION
        ):
            self._compact()

    def _compact(self) -> None:
        # In-place so aliases held by an in-progress run() loop stay valid.
        live = [
            e for e in self._queue if e[2].__class__ is tuple or not e[2].cancelled
        ]
        self._queue[:] = live
        heapq.heapify(self._queue)
        self._cancelled_pending = 0
        self.compactions += 1

    def post(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """Schedule an *uncancellable* ``callback(*args)`` in ``delay`` ms.

        The fast path for high-volume events that are never cancelled
        (datagram delivery): the event is packed as a plain tuple, with
        no :class:`Timer` handle.
        """
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        heapq.heappush(
            self._queue,
            (self._now + delay, next(self._counter), (callback, args, None, 0, None)),
        )

    def pending(self) -> int:
        """Number of queued (possibly cancelled) events."""
        return len(self._queue)

    def run(self, until: float | None = None, max_events: int | None = None) -> int:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` have been processed.  Returns the number of events run.
        """
        ran = 0
        queue = self._queue
        heappop = heapq.heappop
        # One loop body, no helper: it runs once per simulated event, and
        # a peek-then-delegate structure pays a second heap access plus a
        # method call per event.  The one event past ``until`` goes back:
        # entries are keyed by unique ``(when, tick)``, so the pop order
        # is the same as if it had never left.
        while queue:
            if max_events is not None and ran >= max_events:
                break
            item = heappop(queue)
            when, _, entry = item
            if entry.__class__ is not tuple and entry.cancelled:
                if self._cancelled_pending > 0:
                    self._cancelled_pending -= 1
                continue
            if until is not None and when > until:
                heapq.heappush(queue, item)
                self._now = until
                break
            self._now = when
            self._events_processed += 1
            if entry.__class__ is tuple:
                callback, args, owner, incarnation, ctx = entry
            else:
                entry.fired = True
                callback, args, owner = entry.callback, entry.args, entry.owner
                if owner is not None:
                    incarnation, ctx = entry.incarnation, entry.ctx
            # The fence: an owner's callback runs only in the incarnation
            # that armed it, under the span context it was armed in.
            if owner is None:
                callback(*args)
            elif not owner.crashed and owner.incarnation == incarnation:
                if ctx is None:
                    callback(*args)
                else:
                    spans = owner._spans
                    prev = spans._current
                    spans._current = ctx
                    try:
                        callback(*args)
                    finally:
                        spans._current = prev
            ran += 1
        else:
            if until is not None and until > self._now:
                self._now = until
        Scheduler.total_events_processed += ran
        return ran

    def run_for(self, duration: float, max_events: int | None = None) -> int:
        """Run events for ``duration`` ms of simulated time."""
        return self.run(until=self._now + duration, max_events=max_events)
