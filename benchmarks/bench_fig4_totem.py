"""Fig. 4 — the Totem architecture (membership / token order + flow
control / recovery).

Regenerates the two defining behaviours: the flow-control knob (how many
messages the token holder may order per visit) trades latency for
fairness, and the recovery layer merges survivor histories on a crash so
that (extended) view synchrony holds.  A third run shows the structural
cost of the token: it circulates even with no traffic.
"""

from common import Group, Result

from repro.net.topology import LinkModel
from repro.traditional.rmp import RingConfig
from repro.traditional.totem import TotemStack

LINK = LinkModel(1.0, 1.0)


def scenario_fig4_totem() -> Result:
    r = Result()
    flow_rows = []
    for max_orders in (1, 5, 20):
        g = Group("totem", 3, seed=5, link=LINK, config=RingConfig(
            exclusion_timeout=60_000.0, max_orders_per_token=max_orders))
        for i in range(30):
            g.send("p00", ("m", i))
        g.drain(30)
        stats = g.world.metrics.latency.stats("abcast")
        flow_rows.append(
            [max_orders, stats.mean, stats.maximum,
             g.world.metrics.counters.get("abcast.token_passes")]
        )

    # Recovery: survivor histories are merged after a crash.
    g = Group("totem", 3, seed=6, link=LINK, config=RingConfig(exclusion_timeout=250.0))
    world = g.world
    world.run_for(50.0)
    # One survivor misses the orderer's messages before the crash.
    world.transport.set_link("p00", "p02", LinkModel(1.0, 1.0, drop_prob=1.0))
    g.send("p00", "fragile")
    world.run_for(60.0)
    world.crash("p00")
    world.transport.set_link("p00", "p02", LINK)
    assert world.run_until(lambda: "fragile" in g.log("p02"), timeout=60_000)
    recovered = world.metrics.counters.get("reform.messages_recovered")
    same = g.log("p01") == g.log("p02")
    r.table(
        "Fig. 4  Totem stack  (layers: " + " / ".join(TotemStack.LAYERS) + ")",
        ["max orders per token", "latency mean ms", "latency max ms", "token passes"],
        flow_rows,
        note=(
            f"Recovery run: {recovered} message(s) present at only some survivors "
            f"were merged before the new ring (extended view synchrony); "
            f"survivor logs identical = {same}.  Shape: a tighter flow-control "
            f"budget needs more token rotations to drain a burst."
        ),
    )
    r.check("survivor_logs_identical", "survivor logs identical", same, "==", True)
    # Tighter flow control => more token passes to drain the same burst.
    r.check("tighter_flow_control_more_passes", "token passes at 1 vs 20 orders per token",
            flow_rows[0][3], ">", flow_rows[2][3])

    # Idle-ring overhead: the token circulates even with no traffic.
    g = Group("totem", 3, seed=7, link=LINK, config=RingConfig(exclusion_timeout=60_000.0))
    g.world.run_for(1_000.0)
    passes = g.world.metrics.counters.get("abcast.token_passes")
    r.table(
        "Fig. 4  Totem idle-ring overhead",
        ["simulated time ms", "token passes with zero traffic"],
        [[1_000, passes]],
        note="The rotating token costs messages even when idle — a structural "
        "overhead the sequencer and consensus-based designs do not pay.",
    )
    r.check("idle_token_circulates", "token passes in an idle second", passes, ">", 50)
    return r
