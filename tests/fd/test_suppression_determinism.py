"""Byte-identical determinism of the traffic-aware FD paths.

The liveness tap fires on every delivered datagram — it is the one
evidence path, explicit heartbeats included — and suppression consults
per-link send times: both on the hot path.  Replaying the same seeded
crash/recovery scenario twice must reproduce the exact same delivery
logs, counter values, and final clock, or the FD machinery has smuggled
in nondeterminism.
"""

from repro.core.new_stack import build_new_group, enable_recovery
from repro.net.topology import LinkModel
from repro.sim.world import World

from tests.conftest import run_until


def _suppressed_crash_scenario(seed):
    """Full Fig. 9 stack (suppression on by default), a crash, recovery."""
    world = World(seed=seed, default_link=LinkModel(2.0, 6.0))
    stacks = build_new_group(world, 3)
    enable_recovery(world, stacks)
    world.start()
    for i in range(30):
        world.scheduler.at(
            20.0 + 25.0 * i,
            lambda i=i: stacks["p00"].abcast.abcast(
                stacks["p00"].process.msg_ids.message(("cmd", i))
            ),
        )
    world.crash("p02", at=300.0)
    world.recover("p02", at=900.0)
    alive = lambda: [s for s in stacks.values() if not s.process.crashed]
    drained = run_until(
        world,
        lambda: all(
            len([m for m in s.abcast.delivered_log if not m.msg_class.startswith("_")]) >= 30
            for s in alive()
            if s.membership.current_view() is not None
        )
        and len(alive()) == 3,
        timeout=60_000,
    )
    world.run_for(2_000.0)
    return world, stacks, drained


def test_suppressed_stack_fingerprint_is_byte_identical():
    def fingerprint():
        world, stacks, drained = _suppressed_crash_scenario(seed=17)
        assert drained
        logs = {
            pid: [
                str(m.id)
                for m in s.abcast.delivered_log
                if not m.msg_class.startswith("_")
            ]
            for pid, s in stacks.items()
        }
        keep = (
            "net.sent", "net.delivered",
            "fd.explicit_hb", "fd.suppressed", "fd.tap_refreshes",
        )
        counts = {k: world.metrics.counters.get(k) for k in keep}
        return logs, counts, world.now

    first, second = fingerprint(), fingerprint()
    assert first == second
    # The traffic-aware paths actually fired, not just sat configured.
    counts = first[1]
    assert counts["fd.suppressed"] > 0
    assert counts["fd.tap_refreshes"] > 0
    assert counts["fd.explicit_hb"] > 0

