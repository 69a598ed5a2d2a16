"""Unit tests for reliable broadcast."""

from repro.broadcast.rbcast import ReliableBroadcast
from repro.net.reliable import ReliableChannel
from repro.net.topology import LinkModel
from repro.sim.world import World

from tests.conftest import run_until


def rb_world(count=3, seed=1, link=None, relay=True):
    world = World(seed=seed, default_link=link or LinkModel(1.0, 1.0))
    pids = world.spawn(count)
    rbs = {}
    delivered = {pid: [] for pid in pids}
    for pid in pids:
        channel = ReliableChannel(world.process(pid))
        rb = ReliableBroadcast(world.process(pid), channel, lambda p=pids: list(p), relay=relay)
        rb.register("t", lambda origin, payload, mid, pid=pid: delivered[pid].append(payload))
        rbs[pid] = rb
    return world, rbs, delivered


def test_broadcast_reaches_all_members():
    world, rbs, delivered = rb_world()
    world.start()
    rbs["p00"].rbcast("t", "hello")
    assert run_until(world, lambda: all(d == ["hello"] for d in delivered.values()))


def test_sender_delivers_its_own_message():
    world, rbs, delivered = rb_world(count=1)
    world.start()
    rbs["p00"].rbcast("t", 42)
    assert run_until(world, lambda: delivered["p00"] == [42])


def test_no_duplicate_delivery_under_lossy_links():
    world, rbs, delivered = rb_world(seed=2, link=LinkModel(1.0, 3.0, drop_prob=0.2, dup_prob=0.2))
    world.start()
    for i in range(10):
        rbs["p00"].rbcast("t", i)
    assert run_until(world, lambda: all(len(d) == 10 for d in delivered.values()), timeout=30_000)
    world.run_for(1_000.0)
    for d in delivered.values():
        assert sorted(d) == list(range(10))


def test_relay_survives_sender_crash_mid_broadcast():
    # The sender's channel reaches only one peer before the crash; the
    # relay step must still get the message to everybody.
    world = World(seed=3, default_link=LinkModel(1.0, 0.0))
    pids = world.spawn(3)
    delivered = {pid: [] for pid in pids}
    rbs = {}
    for pid in pids:
        channel = ReliableChannel(world.process(pid))
        rb = ReliableBroadcast(world.process(pid), channel, lambda: list(pids))
        rb.register("t", lambda o, p, m, pid=pid: delivered[pid].append(p))
        rbs[pid] = rb
    # Make the sender->p02 link so slow the message is still in flight
    # when the sender dies; p01 gets it fast and relays.
    world.transport.set_link("p00", "p02", LinkModel(delay_min=10_000.0, delay_jitter=0.0))
    world.start()
    rbs["p00"].rbcast("t", "survivor")
    world.crash("p00", at=5.0)
    assert run_until(
        world,
        lambda: delivered["p01"] == ["survivor"] and delivered["p02"] == ["survivor"],
        timeout=5_000,
    )


def test_multiple_tags_are_independent():
    world = World(seed=4)
    pids = world.spawn(2)
    got = {"a": [], "b": []}
    rbs = {}
    for pid in pids:
        channel = ReliableChannel(world.process(pid))
        rb = ReliableBroadcast(world.process(pid), channel, lambda: list(pids))
        rbs[pid] = rb
    rbs["p01"].register("a", lambda o, p, m: got["a"].append(p))
    rbs["p01"].register("b", lambda o, p, m: got["b"].append(p))
    rbs["p00"].register("a", lambda o, p, m: None)
    rbs["p00"].register("b", lambda o, p, m: None)
    world.start()
    rbs["p00"].rbcast("a", 1)
    rbs["p00"].rbcast("b", 2)
    assert run_until(world, lambda: got == {"a": [1], "b": [2]})


def test_duplicate_tag_registration_rejected():
    world = World(seed=5)
    world.spawn(1)
    channel = ReliableChannel(world.process("p00"))
    rb = ReliableBroadcast(world.process("p00"), channel, lambda: ["p00"])
    rb.register("t", lambda o, p, m: None)
    try:
        rb.register("t", lambda o, p, m: None)
        assert False, "expected ValueError"
    except ValueError:
        pass


def test_unhandled_tag_is_traced():
    world = World(seed=6)
    pids = world.spawn(2)
    rbs = {}
    for pid in pids:
        channel = ReliableChannel(world.process(pid))
        rbs[pid] = ReliableBroadcast(world.process(pid), channel, lambda: list(pids))
    world.start()
    rbs["p00"].rbcast("mystery", None)
    world.run_for(100.0)
    assert len(world.trace.select(event="unhandled_tag")) >= 1
