"""Deterministic discrete-event scheduler.

The scheduler is the heart of the simulation substrate: every protocol
action (message delivery, timer expiry, heartbeat, retransmission) is an
event on a single priority queue ordered by simulated time.  Ties are
broken by insertion order, which makes runs fully deterministic for a
given seed and call sequence.

Simulated time is a float in milliseconds.  Nothing in the library reads
the wall clock.
"""

from __future__ import annotations

import heapq
import itertools
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
    """

    __slots__ = ("when", "callback", "args", "cancelled", "fired", "_sched")

    def __init__(
        self,
        when: float,
        callback: Callable[..., None],
        args: tuple,
        sched: "Scheduler | None" = None,
    ):
        self.when = when
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False
        self._sched = sched

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


class Scheduler:
    """A deterministic event loop over simulated time.

    Queue entries are ``(when, tick, Timer)`` for cancellable timers, or
    ``(when, tick, (callback, args))`` for fire-and-forget events posted
    via :meth:`post` — the tuple-packed fast path used for per-datagram
    delivery hops, which skips the Timer allocation and its state
    bookkeeping.  Ties are still broken by the insertion tick, so the
    two kinds interleave deterministically.
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
            self._queue, (self._now + delay, next(self._counter), (callback, args))
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
        # One loop body, no helper: it runs once per simulated event, and
        # a peek-then-delegate structure pays a second heap access plus a
        # method call per event.
        while queue:
            if max_events is not None and ran >= max_events:
                break
            when, _, entry = queue[0]
            if entry.__class__ is not tuple and entry.cancelled:
                heapq.heappop(queue)
                if self._cancelled_pending > 0:
                    self._cancelled_pending -= 1
                continue
            if until is not None and when > until:
                self._now = until
                break
            heapq.heappop(queue)
            self._now = when
            self._events_processed += 1
            if entry.__class__ is tuple:
                entry[0](*entry[1])
            else:
                entry.fired = True
                entry.callback(*entry.args)
            ran += 1
        else:
            if until is not None and until > self._now:
                self._now = until
        Scheduler.total_events_processed += ran
        return ran

    def run_for(self, duration: float, max_events: int | None = None) -> int:
        """Run events for ``duration`` ms of simulated time."""
        return self.run(until=self._now + duration, max_events=max_events)
