"""The star monitor's expiry timer rescans only when something moved.

``StarMonitor._expire`` re-arms from the first-hand peers' records while
the member list is the object ``_check`` last read and nobody is
suspected, and runs ``_check`` otherwise.  Two worlds
run the same random schedule — traffic and heartbeat arrivals, silences
long enough for the head or anybody else to time out, reports from
anybody, view installs, stretches where everybody but one (or
everybody) talks — one with that expiry, one whose every expiry
rescans as ``_check`` always did; after every step the edges, the suspect
sets and every armed timer must be the same.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fd.heartbeat import HeartbeatFailureDetector, StarMonitor
from repro.net.reliable import ReliableChannel
from repro.net.topology import LinkModel
from repro.sim.world import World

HEARTBEAT = 15.0
TIMEOUT = 60.0
ME = "p00"


class RescanningStarMonitor(StarMonitor):
    """Every expiry runs ``_check``."""

    def _expire(self) -> None:
        self._check()


class Twin:
    """``ME``'s detector, star monitor and exclusion-speed mesh monitor
    in a world of ``count`` processes; the others are bare."""

    def __init__(self, count: int, monitor_class: type[StarMonitor]) -> None:
        self.world = world = World(seed=1, default_link=LinkModel(1.0, 2.0))
        self.pids = world.spawn(count)
        self.view = list(self.pids)
        process = world.process(ME)
        channel = ReliableChannel(process)
        self.fd = HeartbeatFailureDetector(process, self.members, HEARTBEAT, channel=channel)
        self.monitor = monitor_class(self.fd, self.members, TIMEOUT, channel)
        self.fd.monitor(self.members, 10 * TIMEOUT)
        world.start()

    def members(self) -> list[str]:
        return self.view

    @property
    def edges(self) -> list[tuple[float, str, str]]:
        """The star monitor's edges, read from its trace records."""
        return [
            (r.time, r.details["peer"], r.event)
            for r in self.world.trace.select(pid=ME, component="fd")
            if r.event in ("suspect", "trust") and r.details["timeout"] == TIMEOUT
        ]

    def step(self, step: tuple) -> None:
        kind, *args = step
        world, fd = self.world, self.fd
        if kind == "traffic":
            src, asks, wait = args
            world.run_for(wait)
            fd._on_traffic(src, 0, "rc" if asks is None else "fd.hb")
            if asks is not None:
                fd._on_heartbeat(src, asks)
        elif kind == "chatter":  # everybody but ``quiet`` talks, every ``gap`` ms
            quiet, gap, rounds = args
            for _ in range(rounds):
                world.run_for(gap)
                for src in self.pids:
                    if src not in (ME, quiet):
                        fd._on_traffic(src, 0, "rc")
        elif kind == "silence":
            world.run_for(args[0])
        elif kind == "report":
            src, named = args
            self.monitor._on_report(src, tuple((peer, 0) for peer in sorted(named)))
        else:  # a view install: a new list, the same members or not
            order, keep = args
            others = [pid for pid in order if pid != ME and pid in keep]
            position = order.index(ME) % (len(others) + 1)
            self.view = others[:position] + [ME] + others[position:]

    def state(self) -> tuple:
        scheduler = self.world.scheduler
        armed = sorted(
            (when, tick) for when, tick, *_ in scheduler._queue
            if tick not in scheduler._cancelled
        )
        timer = self.monitor._timer
        return (
            self.edges,
            set(self.monitor.suspects),
            set(self.monitor.first_hand),
            None if timer is None or not timer.active else timer.when,
            armed,
        )


@st.composite
def schedules(draw):
    count = draw(st.integers(3, 5))
    pids = [f"p{i:02d}" for i in range(count)]
    others = pids[1:]
    wait = st.floats(0.0, 45.0, allow_nan=False)
    step = st.one_of(
        # ``asks`` None: an rc segment; else a heartbeat saying so.
        st.tuples(st.just("traffic"), st.sampled_from(others), st.sampled_from((None, False, True)),
                  wait),
        st.tuples(st.just("chatter"), st.sampled_from(pids), st.floats(1.0, 20.0),
                  st.integers(1, 30)),
        st.tuples(st.just("silence"), st.floats(0.0, 2.5 * TIMEOUT, allow_nan=False)),
        st.tuples(st.just("report"), st.sampled_from(pids),
                  st.frozensets(st.sampled_from(pids), max_size=count - 1)),
        st.tuples(st.just("view"), st.permutations(pids),
                  st.frozensets(st.sampled_from(others), min_size=1)),
    )
    return count, draw(st.lists(step, min_size=1, max_size=40))


@settings(max_examples=200, deadline=None)
@given(schedules())
def test_expiry_without_the_rescan_moves_nothing(schedule):
    count, steps = schedule
    fast, rescanning = Twin(count, StarMonitor), Twin(count, RescanningStarMonitor)
    assert fast.state() == rescanning.state()
    for step in steps:
        fast.step(step)
        rescanning.step(step)
        assert fast.state() == rescanning.state(), step


def test_a_suspect_heard_without_the_tap_is_trusted_at_the_next_expiry(monkeypatch):
    # The tap revises a suspicion at once (``Monitor._heard``); with that
    # stubbed out, only a scan finds the suspect's evidence.  The idle
    # expiry must not skip it: while anybody is suspected it rescans.
    monkeypatch.setattr(StarMonitor, "_heard", lambda self, peer: None)
    fast, rescanning = Twin(3, StarMonitor), Twin(3, RescanningStarMonitor)
    steps = [
        ("chatter", "p01", 10.0, 10),  # p01 falls silent: suspected
        ("traffic", "p01", None, 0.0),  # and talks, unnoticed by the tap
        ("chatter", ME, 10.0, 10),  # everybody talks, expiries fire
    ]
    for step in steps:
        fast.step(step)
        rescanning.step(step)
        assert fast.state() == rescanning.state(), step
    assert [edge[1:] for edge in fast.edges] == [("p01", "suspect"), ("p01", "trust")]
