"""Direct unit tests for the event-routing composition kernel."""

from repro.net.reliable import ReliableChannel
from repro.sim.world import World
from repro.stack.events import CAST, DELIVER, DOWN, PT2PT, UP, Event
from repro.stack.kernel import StackKernel
from repro.stack.layer import Layer

from tests.conftest import run_until


class Recorder(Layer):
    """Transparent layer that records every event it sees."""

    def __init__(self, name):
        super().__init__()
        self.name = name
        self.seen_up = []
        self.seen_down = []

    def on_up(self, event):
        self.seen_up.append(event.type)
        self.pass_on(event)

    def on_down(self, event):
        self.seen_down.append(event.type)
        self.pass_on(event)


class Consumer(Layer):
    name = "consumer"

    def __init__(self):
        super().__init__()
        self.consumed = []

    def on_up(self, event):
        if event.type == DELIVER:
            self.consumed.append(event.get("payload"))
            return  # consume
        self.pass_on(event)


def build(world, pids, layer_factories):
    kernels = {}
    for pid in pids:
        proc = world.process(pid)
        channel = ReliableChannel(proc)
        layers = [f() for f in layer_factories]
        kernels[pid] = StackKernel(proc, channel, layers, lambda: list(pids))
    return kernels


def test_events_visit_layers_in_order():
    world = World(seed=1)
    world.spawn(1)
    bottom, top = Recorder("bottom"), Recorder("top")
    proc = world.process("p00")
    channel = ReliableChannel(proc)
    kernel = StackKernel(proc, channel, [bottom, top], lambda: ["p00"])
    world.start()
    kernel.route(Event("probe", UP, {}), 0)
    assert bottom.seen_up == ["probe"]
    assert top.seen_up == ["probe"]
    kernel.route(Event("probe2", DOWN, {}), 1)
    assert top.seen_down == ["probe2"]
    assert bottom.seen_down == ["probe2"]


def test_cast_goes_to_every_member_and_back_up():
    world = World(seed=2)
    pids = world.spawn(3)
    kernels = build(world, pids, [lambda: Consumer()])
    world.start()
    kernels["p00"].route(Event(CAST, DOWN, {"payload": "x"}), 0)
    assert run_until(
        world,
        lambda: all(k.layers[0].consumed == ["x"] for k in kernels.values()),
        timeout=10_000,
    )


def test_pt2pt_targets_one_process():
    world = World(seed=3)
    pids = world.spawn(3)
    kernels = build(world, pids, [lambda: Consumer()])
    world.start()
    kernels["p00"].route(Event(PT2PT, DOWN, {"dst": "p02", "payload": "solo"}), 0)
    assert run_until(
        world, lambda: kernels["p02"].layers[0].consumed == ["solo"], timeout=10_000
    )
    assert kernels["p01"].layers[0].consumed == []


def test_bouncing_event_reverses_at_bottom():
    world = World(seed=4)
    world.spawn(1)
    recorder = Recorder("only")
    proc = world.process("p00")
    channel = ReliableChannel(proc)
    kernel = StackKernel(proc, channel, [recorder], lambda: ["p00"])
    world.start()
    kernel.route(Event("ping", DOWN, {}, bounce=True), 0)
    # Seen once on the way down, then again on the way back up.
    assert recorder.seen_down == ["ping"]
    assert recorder.seen_up == ["ping"]
    assert world.metrics.counters.get("ens.bounces") == 1


def test_events_exiting_edges_are_traced_not_fatal():
    world = World(seed=5)
    world.spawn(1)
    proc = world.process("p00")
    channel = ReliableChannel(proc)
    kernel = StackKernel(proc, channel, [Recorder("r")], lambda: ["p00"])
    world.start()
    kernel.route(Event("up-and-out", UP, {}), 0)
    kernel.route(Event("down-and-out", DOWN, {}), -1)
    assert len(world.trace.select(event="event_exited_top")) == 1
    assert len(world.trace.select(event="event_exited_bottom")) == 1


def test_layer_lookup_and_names():
    world = World(seed=6)
    world.spawn(1)
    proc = world.process("p00")
    channel = ReliableChannel(proc)
    a, b = Recorder("a"), Recorder("b")
    kernel = StackKernel(proc, channel, [a, b], lambda: ["p00"])
    assert kernel.layer_names() == ["a", "b"]
    assert kernel.layer("b") is b
    try:
        kernel.layer("nope")
        assert False
    except KeyError:
        pass


def test_inject_starts_beyond_the_injecting_layer():
    world = World(seed=7)
    world.spawn(1)
    proc = world.process("p00")
    channel = ReliableChannel(proc)
    a, b, c = Recorder("a"), Recorder("b"), Recorder("c")
    kernel = StackKernel(proc, channel, [a, b, c], lambda: ["p00"])
    world.start()
    kernel.inject(b, Event("up-from-b", UP, {}))
    assert c.seen_up == ["up-from-b"]
    assert b.seen_up == [] and a.seen_up == []
    kernel.inject(b, Event("down-from-b", DOWN, {}))
    assert a.seen_down == ["down-from-b"]
    assert b.seen_down == []


def test_add_tap_observes_every_hop_without_perturbing_routing():
    world = World(seed=8)
    pids = world.spawn(2)
    kernels = build(world, pids, [lambda: Recorder("bottom"), lambda: Consumer()])
    hops = []
    kernels["p01"].add_tap(lambda event, index: hops.append((event.type, index)))
    world.start()

    kernels["p00"].route(Event(CAST, DOWN, {"payload": "hello"}), 1)
    assert run_until(
        world, lambda: kernels["p01"].layer("consumer").consumed == ["hello"]
    )
    # The tap saw the incoming packet enter at the bottom (index 0) and
    # climb to the consumer (index 1).
    assert (DELIVER, 0) in hops
    assert (DELIVER, 1) in hops
    # Observation only: the untapped process delivered identically.
    assert kernels["p00"].layer("consumer").consumed == ["hello"]


def test_taps_run_in_registration_order():
    world = World(seed=5)
    (pid,) = world.spawn(1)
    proc = world.process(pid)
    kernel = StackKernel(proc, ReliableChannel(proc), [Consumer()], lambda: [pid])
    order = []
    kernel.add_tap(lambda event, index: order.append("first"))
    kernel.add_tap(lambda event, index: order.append("second"))
    kernel.route(Event(DELIVER, UP, {"payload": "x"}), 0)
    assert order == ["first", "second"]
