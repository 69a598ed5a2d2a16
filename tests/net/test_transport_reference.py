"""The route-taking datagram path against the by-name one it replaced.

``UnreliableTransport.send`` takes the route its caller holds and does
the link draws inline; ``tests/net/reference_transport.py`` keeps the
``u_send`` it replaced, verbatim.  Twin worlds with the same seed run
the same random schedule — link models with and without jitter, loss,
duplication and a bandwidth term, loopback pairs, a peer that does not
exist, crashes and recoveries between sends, random sizes and byte
splits — one through the ``u_send`` adapter (with ``send``, the
reliable channel's and the detector's path, underneath), one through the
reference.  After every step both heaps, every counter and the
transport's random stream must be the same.
"""

import types

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.topology import LinkModel
from repro.net.wire import Blob, wire_size
from repro.sim.world import World

from tests.net.reference_transport import ReferenceTransport

PIDS = ("p00", "p01", "p02")
#: Never spawned: a route end that does not exist.
GHOST = "p09"
LAYERS = ("fd", "rc", "rbcast", "consensus", "other")

links = st.builds(
    LinkModel,
    delay_min=st.sampled_from((0.0, 1.0, 2.5)),
    delay_jitter=st.sampled_from((0.0, 1.0, 4.0)),
    drop_prob=st.sampled_from((0.0, 0.2, 0.5)),
    dup_prob=st.sampled_from((0.0, 0.3, 1.0)),
    bytes_per_ms=st.sampled_from((None, 125.0, 2_000.0)),
)
ends = st.sampled_from(PIDS + (GHOST,))


@st.composite
def sends(draw):
    src, dst = draw(ends), draw(ends)
    payload = draw(st.one_of(
        st.integers(-5, 10**6), st.text(max_size=12), st.booleans(),
        st.builds(Blob, st.integers(0, 8_192)),
        st.tuples(st.sampled_from(("DATA", "ACK")), st.integers(0, 9),
                  st.builds(Blob, st.integers(0, 512))),
    ))
    size = wire_size(payload)
    split = None
    if draw(st.booleans()):
        shares = draw(st.lists(st.tuples(st.sampled_from(LAYERS), st.integers(0, 64)), max_size=4))
        split = [(layer, min(share, size)) for layer, share in shares]
        split = split if sum(b for _, b in split) <= size else None
    port = draw(st.sampled_from(("rc", "fd.hb", "app")))
    return ("send", src, dst, port, payload, draw(st.sampled_from(LAYERS)), split,
            draw(st.booleans()))


steps = st.one_of(
    sends(),
    st.tuples(st.just("link"), ends, ends, links),
    st.tuples(st.just("default"), links),
    st.tuples(st.just("crash-recover"), st.sampled_from(PIDS)),
    st.tuples(st.just("run"), st.floats(0.0, 10.0, allow_nan=False)),
)


def twin(seed: int, reference: bool) -> World:
    world = World(seed=seed, default_link=LinkModel(1.0, 1.0))
    world.spawn(len(PIDS))
    if reference:
        world.transport.u_send = types.MethodType(ReferenceTransport.u_send, world.transport)
    world.start()
    return world


def step(world: World, action: tuple) -> None:
    kind, *args = action
    transport = world.transport
    if kind == "send":
        src, dst, port, payload, layer, split, sized = args
        size = wire_size(payload) if sized else None
        transport.u_send(src, dst, port, payload, layer=layer, byte_split=split, size=size)
    elif kind == "link":
        transport.set_link(*args)
    elif kind == "default":
        transport.default_link = args[0]
    elif kind == "crash-recover":
        process = world.process(args[0])
        process.crash()
        process.recover()
    else:
        world.run_for(args[0])


def span_of(span) -> tuple | None:
    if span is None:
        return None
    return (span.sid, span.parent, span.pid, span.layer, span.name, span.kind, span.start,
            span.end, span.details)


def state(world: World) -> tuple:
    """Every queued datagram — time, tick, route, port, payload and
    incarnation stamps, its transit span — the counters, the stream."""
    entries = []
    for when, tick, (callback, args, owner, incarnation, ctx) in sorted(world.scheduler._queue):
        route, port, payload, src_inc, dst_inc, span = args
        assert callback.__name__ == "_deliver" and (owner, incarnation, ctx) == (None, 0, None)
        entries.append((when, tick, route.src, route.dst, port, payload, src_inc, dst_inc,
                        span_of(span)))
    return (
        entries,
        world.metrics.counters.snapshot(),
        world.transport._rng.getstate(),
        world.scheduler.events_processed,
    )


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**16), st.lists(steps, min_size=1, max_size=30))
def test_send_draws_and_queues_what_the_by_name_path_did(seed, actions):
    today, reference = twin(seed, reference=False), twin(seed, reference=True)
    for action in actions:
        step(today, action)
        step(reference, action)
        assert state(today) == state(reference), action
