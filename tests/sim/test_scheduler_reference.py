"""The one-entry-layout scheduler against the two-kind one it replaced.

``tests/sim/reference_scheduler.py`` keeps the scheduler whose heap held
``Timer`` objects next to posted tuples, verbatim.  Twin schedulers run
the same random program — ownerless ``schedule``, ``at`` and ``post``,
owned ``schedule`` and ``post`` under a span context, cancels of earlier
tickets (pending, fired, cancelled already, or from inside their own
callback), callbacks that arm or cancel further timers, owner crashes
and recoveries, ``run(until=…)`` and ``run(max_events=…)``.  After
every step both sides must agree on the firing trace, the event count,
the heap size, the clock and the state of every ticket.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import scheduler as flat
from repro.sim.tracing import SpanLog

from tests.sim import reference_scheduler as reference

OWNERS = 2
delays = st.sampled_from((0.0, 0.5, 1.0, 2.0, 5.0))
#: What a callback does after it records its firing.
reactions = st.one_of(
    st.none(),
    st.tuples(st.just("arm"), st.integers(-1, OWNERS - 1), delays),
    st.tuples(st.just("cancel"), st.integers(0, 63)),
    st.just(("cancel-self",)),
)
steps = st.one_of(
    st.tuples(st.sampled_from(("schedule", "at", "post")), delays, reactions),
    st.tuples(st.sampled_from(("owned-schedule", "owned-post")), st.integers(0, OWNERS - 1),
              delays, st.sampled_from((None, "ctx-a", "ctx-b")), reactions),
    st.tuples(st.just("cancel"), st.integers(0, 63)),
    st.tuples(st.sampled_from(("crash", "recover")), st.integers(0, OWNERS - 1)),
    st.tuples(st.just("until"), st.sampled_from((0.0, 0.5, 1.0, 3.0, 10.0))),
    st.tuples(st.just("max-events"), st.integers(0, 4)),
)


class Side:
    """One scheduler, its owners, every ticket it handed out and the
    trace of what fired."""

    def __init__(self, module):
        self.sched = module.Scheduler()
        if module is reference:
            self.sched.COMPACT_MIN_CANCELLED = 10**9
        self.owners = []
        for _ in range(OWNERS):
            owner = type("Owner", (module.TimerOwner,), {})()
            owner._scheduler, owner.crashed, owner.incarnation = self.sched, False, 0
            owner._spans = SpanLog()
            self.owners.append(owner)
        self.tickets = []
        self.trace = []

    def arm(self, kind, owner, delay, label, reaction, ctx=None):
        """Arm one entry; its callback records ``(time, label, ctx)`` and
        then does ``reaction``."""
        index = len(self.tickets) if kind in ("schedule", "at", "owned-schedule") else None
        callback = (self.fire, label, owner, index, reaction)
        if kind == "schedule":
            self.tickets.append(self.sched.schedule(delay, *callback))
        elif kind == "at":
            self.tickets.append(self.sched.at(self.sched.now + delay, *callback))
        elif kind == "post":
            self.sched.post(delay, *callback)
        else:
            spans = self.owners[owner]._spans
            spans._current = ctx
            if kind == "owned-schedule":
                self.tickets.append(self.owners[owner].schedule(delay, *callback))
            else:
                self.owners[owner].post(delay, *callback)
            spans._current = None

    def fire(self, label, owner, index, reaction):
        ctx = None if owner is None else self.owners[owner]._spans._current
        self.trace.append((self.sched.now, label, ctx))
        if reaction is None:
            return
        if reaction[0] == "arm":
            _, who, delay = reaction
            kind = "schedule" if who < 0 else "owned-schedule"
            self.arm(kind, None if who < 0 else who, delay, label + ">", None)
        elif reaction[0] == "cancel":
            self.cancel(reaction[1])
        elif index is not None:
            self.tickets[index].cancel()

    def cancel(self, pick):
        if self.tickets:
            self.tickets[pick % len(self.tickets)].cancel()

    def step(self, label, action):
        kind = action[0]
        if kind in ("schedule", "at", "post"):
            self.arm(kind, None, action[1], label, action[2])
        elif kind in ("owned-schedule", "owned-post"):
            _, owner, delay, ctx, reaction = action
            self.arm(kind, owner, delay, label, reaction, ctx)
        elif kind == "cancel":
            self.cancel(action[1])
        elif kind == "crash":
            self.owners[action[1]].crashed = True
        elif kind == "recover":
            owner = self.owners[action[1]]
            owner.crashed = False
            owner.incarnation += 1
        elif kind == "until":
            return self.sched.run(until=self.sched.now + action[1])
        else:
            return self.sched.run(max_events=action[1])

    def observed(self):
        return (
            self.trace,
            self.sched.now,
            self.sched.events_processed,
            self.sched.pending(),
            [(t.when, t.active, t.fired, t.cancelled) for t in self.tickets],
        )


@settings(max_examples=400, deadline=None)
@given(st.lists(steps, min_size=1, max_size=40))
def test_the_flat_heap_runs_every_program_as_the_two_kind_heap_did(program):
    twin, ref = Side(flat), Side(reference)
    for i, action in enumerate(program):
        label = str(i)
        assert twin.step(label, action) == ref.step(label, action)
        assert twin.observed() == ref.observed()
    assert twin.step("end", ("max-events", 10**6)) == ref.step("end", ("max-events", 10**6))
    assert twin.observed() == ref.observed()
