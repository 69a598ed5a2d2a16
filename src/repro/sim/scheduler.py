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

import itertools
from heapq import heappop, heappush
from typing import Any, Callable

#: Slack for "has this deadline come?": a timer armed ``deadline - now``
#: ahead fires at ``now + (deadline - now)``, which float rounding can
#: leave a hair short of ``deadline``; it must not find nothing due and
#: re-arm for zero delay.
DUE_SLACK = 1e-6


class Timer:
    """A ticket for a scheduled callback: its heap key and a cancel flag.

    Returned by :meth:`Scheduler.schedule`, :meth:`Scheduler.at` and
    :meth:`TimerOwner.schedule`; the callback itself lives in the heap
    entry.  Cancelling an already-fired or already-cancelled timer is a
    no-op.  ``fired`` and ``active`` are read off the scheduler: entries
    run in strictly increasing ``(when, tick)`` order, so a timer not
    cancelled has fired iff its key is at or below the last one run.
    """

    __slots__ = ("when", "tick", "cancelled", "_sched")

    def __init__(self, when: float, tick: int, sched: "Scheduler"):
        self.when = when
        self.tick = tick
        self.cancelled = False
        self._sched = sched

    def cancel(self) -> None:
        if self.active:
            self.cancelled = True
            self._sched._cancelled.add(self.tick)

    @property
    def fired(self) -> bool:
        sched = self._sched
        return not self.cancelled and (self.when, self.tick) <= (sched._now, sched._last_tick)

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
        tick = next(scheduler._counter)
        heappush(scheduler._queue, (
            when, tick, callback, args, self, self.incarnation, self._spans._current
        ))
        return Timer(when, tick, scheduler)

    def post(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """:meth:`schedule` for an event nobody cancels: the same
        incarnation fence and span context, no :class:`Timer` (an owned
        :meth:`Scheduler.post`)."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        scheduler = self._scheduler
        heappush(scheduler._queue, (
            scheduler._now + delay, next(scheduler._counter),
            callback, args, self, self.incarnation, self._spans._current,
        ))


class Scheduler:
    """A deterministic event loop over simulated time.

    Every queue entry is one flat tuple ``(when, tick, callback, args,
    owner, incarnation, ctx)``, built only in this module.  ``tick`` is
    the insertion counter: it breaks ties, so entries pop in strictly
    increasing ``(when, tick)`` order, and it names the entry — a
    cancelled :class:`Timer` puts its tick in ``_cancelled``, and
    :meth:`run` drops that entry when it pops, without counting it.

    **The incarnation fence lives here.**  ``owner`` is a
    :class:`TimerOwner` (or ``None``), ``incarnation`` the one that armed
    the entry and ``ctx`` the span context to restore.  :meth:`run`
    skips the callback of an entry whose owner crashed or recovered
    since; the skipped entry still counts as an event and its timer as
    fired.
    """

    #: Events executed across every Scheduler instance in this process —
    #: lets the benchmark harness meter scenarios that build (several)
    #: worlds internally.  Maintained in batches by :meth:`run` (not per
    #: event — that would tax the hot loop).  Wall-clock-free:
    #: determinism is unaffected.
    total_events_processed = 0

    #: Heap compactions: none, a cancelled entry is dropped when it pops.
    #: A constant kept only because the perf observatory reports it
    #: (``benchmarks/perf/harness.py``, ``sim.heap_compactions``).
    compactions = 0

    def __init__(self) -> None:
        self._queue: list[tuple] = []
        self._counter = itertools.count()
        self._cancelled: set[int] = set()
        self._now = 0.0
        self._last_tick = -1
        self._events_processed = 0

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
        return self.at(self._now + delay, callback, *args)

    def at(self, when: float, callback: Callable[..., None], *args: Any) -> Timer:
        """Schedule ``callback(*args)`` at absolute simulated time ``when``."""
        if when < self._now:
            raise ValueError(f"cannot schedule in the past: {when} < {self._now}")
        tick = next(self._counter)
        heappush(self._queue, (when, tick, callback, args, None, 0, None))
        return Timer(when, tick, self)

    def post(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """Schedule an *uncancellable* ``callback(*args)`` in ``delay`` ms:
        the same entry as :meth:`schedule`, no :class:`Timer` ticket."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        heappush(
            self._queue,
            (self._now + delay, next(self._counter), callback, args, None, 0, None),
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
        cancelled = self._cancelled
        # One loop body, no helper: it runs once per simulated event, and
        # a peek-then-delegate structure pays a second heap access plus a
        # method call per event.  The one event past ``until`` goes back:
        # entries are keyed by unique ``(when, tick)``, so the pop order
        # is the same as if it had never left.
        while queue:
            if max_events is not None and ran >= max_events:
                break
            item = heappop(queue)
            when, tick, callback, args, owner, incarnation, ctx = item
            if tick in cancelled:
                cancelled.discard(tick)
                continue
            if until is not None and when > until:
                heappush(queue, item)
                self._now = until
                break
            self._now = when
            self._last_tick = tick
            self._events_processed += 1
            # The fence: an owner's callback runs only in the incarnation
            # that armed it, under the span context it was armed in.
            if owner is None:
                callback(*args)
            elif not owner.crashed and owner.incarnation == incarnation:
                if ctx is None:
                    callback(*args)
                else:
                    owner._spans.within(ctx, callback, *args)
            ran += 1
        else:
            if until is not None and until > self._now:
                self._now = until
        Scheduler.total_events_processed += ran
        return ran

    def run_for(self, duration: float, max_events: int | None = None) -> int:
        """Run events for ``duration`` ms of simulated time."""
        return self.run(until=self._now + duration, max_events=max_events)
