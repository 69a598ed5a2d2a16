"""The keep-alive pass over one record per peer sends, flushes, counts
and sleeps exactly as the five-map pass it replaced.

Both passes start from the same generated detector state — cadences with
and without readers, live and expired asks and answers, ``last_heard``
absent, fresh and stale, last-sent on both sides of ``due_by``, an owed
ACK or buffered segments or nothing, deadlines on both sides of the
``KEEPALIVE_SLACK`` and ``DUE_SLACK`` edges — then run two more passes
as the peer set shrinks and grows back and the clock moves; they must
agree on every
heartbeat, every flush, the suppressed and explicit counts, every
deadline and the wake-up time.
"""

from __future__ import annotations

from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fd.heartbeat import KEEPALIVE_SLACK, HeartbeatFailureDetector
from repro.sim.scheduler import DUE_SLACK
from repro.sim.world import World

from tests.fd.reference_keepalive import ReferenceDetector, reference_keepalive

HB = 10.0
NOW = 1_000.0
PEERS = ("p01", "p02", "p03", "p04")
#: Offsets that straddle an edge: below, a hair below, on, a hair above, above.
EDGES = (-1.0, -DUE_SLACK / 4, 0.0, DUE_SLACK / 4, 1.0)


class FakeChannel:
    """``flush_toward`` as the detector sees it: what the channel owes."""

    def __init__(self, owes: dict[str, str]) -> None:
        self.owes = dict(owes)
        self.flushed: list[tuple[str, str]] = []

    def flush_toward(self, dst: str) -> bool:
        owed = self.owes.pop(dst, "nothing")
        if owed == "nothing":
            return False
        self.flushed.append((dst, owed))
        return True


def effective_interval(peer: dict, now: float) -> float:
    said = peer["said"]
    if peer["interval"] > HB and said is not None and said[0] is True and said[1] > now:
        return HB
    return peer["interval"]


@st.composite
def peer_states(draw, now: float):
    # (R3) a reader at the small timeout keeps the link at ``HB``; slower
    # readers, or none, leave a quarter of their timeout.
    interval = draw(st.sampled_from((HB, 15.0, 125.0, 500.0)))
    asks = draw(st.booleans())
    said = draw(
        st.one_of(
            st.none(),
            st.tuples(
                st.booleans(), st.sampled_from((now - 5.0, now, now + DUE_SLACK, now + 40.0))
            ),
        )
    )
    heard = draw(st.sampled_from((None, now, now - 1.0, now - HB, now - HB - 1.0, now - 600.0)))
    peer = {"interval": interval, "asks": asks, "said": said, "heard": heard}
    eff = effective_interval(peer, now)
    due_by = now + eff * KEEPALIVE_SLACK + DUE_SLACK
    sent = draw(
        st.one_of(
            st.none(),
            st.sampled_from(EDGES).map(lambda edge: due_by - eff + edge),
            st.sampled_from((now, now - 600.0)),
        )
    )
    deadline = draw(
        st.one_of(
            st.none(),
            st.sampled_from(EDGES).map(lambda edge: due_by + edge),
            st.sampled_from(EDGES).map(lambda edge: now + eff * KEEPALIVE_SLACK + edge),
            st.sampled_from((now - 50.0, now + eff, now + 600.0)),
        )
    )
    owes = draw(st.sampled_from(("nothing", "ack", "segments")))
    return {**peer, "sent": sent, "deadline": deadline, "owes": owes}


@st.composite
def scenarios(draw):
    states = {pid: draw(peer_states(NOW)) for pid in PEERS}
    members = list(PEERS) + ["p00"]
    first = draw(st.permutations(members))
    second = draw(st.lists(st.sampled_from(members), unique=True))
    advance = draw(st.sampled_from((0.0, DUE_SLACK, 1.0, HB, 200.0)))
    with_channel = draw(st.booleans())
    return states, first, second, advance, with_channel


def build_new(states, provider, channel):
    world = World(seed=1)
    world.spawn(5)
    fd = HeartbeatFailureDetector(world.process("p00"), lambda: provider[0], HB, channel)
    sent = []
    world.transport.send = lambda route, port, payload, layer, size: sent.append(
        (route.dst, port, payload, layer)
    )
    world.scheduler._now = NOW
    for pid, state in states.items():
        peer = fd._peer(pid)
        peer.interval, peer.asks = state["interval"], state["asks"]
        if state["said"] is not None:
            peer.said, peer.said_until = state["said"]
        peer.heard = state["heard"]
        peer.route.last_sent = state["sent"]
        if state["deadline"] is not None:
            peer.deadline, peer.kept = state["deadline"], fd._passes
    return world, fd, sent


def build_reference(states, provider, channel):
    sent, timers = [], []
    last_sent = {pid: state["sent"] for pid, state in states.items() if state["sent"] is not None}
    transport = SimpleNamespace(
        last_sent=lambda src, dst: last_sent.get(dst) if src == "p00" else None,
        u_send=lambda src, dst, port, payload, layer: sent.append((dst, port, payload, layer)),
    )
    ref = ReferenceDetector(
        "p00", lambda: provider[0], HB, channel, SimpleNamespace(transport=transport),
        lambda delay, callback: timers.append(ref.now + delay),
    )
    ref.now = NOW
    for pid, state in states.items():
        ref._cadence[pid] = (state["interval"], state["asks"])
        if state["said"] is not None:
            ref._said[pid] = state["said"]
        if state["heard"] is not None:
            ref._last_heard[pid] = state["heard"]
        if state["deadline"] is not None:
            ref._deadlines[pid] = state["deadline"]
    return ref, sent, timers, last_sent


@settings(max_examples=300, deadline=None)
@given(scenarios())
def test_record_pass_matches_the_five_map_pass(scenario):
    states, first, second, advance, with_channel = scenario
    owes = {pid: state["owes"] for pid, state in states.items()}
    new_channel = FakeChannel(owes) if with_channel else None
    ref_channel = FakeChannel(owes) if with_channel else None
    provider = [first]
    world, fd, new_sent = build_new(states, provider, new_channel)
    ref, ref_sent, ref_timers, ref_last_sent = build_reference(states, provider, ref_channel)

    for members in (first, second, first):
        provider[0] = members
        already = (len(new_sent), len(new_channel.flushed) if with_channel else 0)
        fd._keepalive()
        reference_keepalive(ref)
        assert new_sent == ref_sent
        if with_channel:
            assert new_channel.flushed == ref_channel.flushed
        counters = world.metrics.counters
        assert (counters.get("fd.suppressed"), counters.get("fd.explicit_hb")) == (
            ref.counts["suppressed"],
            ref.counts["explicit"],
        )
        deadlines = {
            pid: peer.deadline for pid, peer in fd._peers.items() if peer.kept == fd._passes
        }
        assert deadlines == ref._deadlines
        assert fd._timer.when == ref_timers[-1]
        # What this pass sent or flushed is last-sent; the clock moves on.
        flushed = new_channel.flushed[already[1]:] if with_channel else []
        for dst, *_ in new_sent[already[0]:] + flushed:
            fd._peer(dst).route.last_sent = ref_last_sent[dst] = world.scheduler._now
        world.scheduler._now = ref.now = NOW + advance
