"""Fig. 1 — the Isis architecture (membership / view synchrony / abcast).

Regenerates the behaviour the figure's layering implies: total order via
the fixed sequencer in the failure-free mode, and the failure mode's
dependency chain — the sequencer crash blocks atomic broadcast until the
membership layer (bottom) excludes it and view synchrony flushes.
"""

from common import Group, Result, per_delivery_messages

from repro.net.topology import LinkModel
from repro.traditional.isis import IsisConfig, IsisStack


def scenario_fig1_isis() -> Result:
    r = Result()
    # Failure-free phase.
    g = Group("isis", 3, seed=1, link=LinkModel(1.0, 1.0),
              config=IsisConfig(exclusion_timeout=400.0))
    for i in range(10):
        g.send("p00", ("a", i))
        g.send("p01", ("b", i))
    orders = g.drain(20)
    r.check("total_order", "distinct delivery orders",
            len({tuple(o) for o in orders.values()}), "==", 1)
    world = g.world
    stats = world.metrics.latency.stats("abcast")
    rows = [
        ["failure-free", stats.mean, stats.p95,
         per_delivery_messages(world, 20), world.metrics.counters.get("vs.views_installed")]
    ]

    # Failure mode: crash the sequencer.
    recovery = g.after_crash("p00", "p01")
    rows.append(["sequencer crash -> new view", recovery, float("nan"),
                 float("nan"), world.metrics.counters.get("vs.views_installed")])
    r.table(
        "Fig. 1  Isis stack  (layers: " + " / ".join(IsisStack.LAYERS) + ")",
        ["phase", "latency mean ms", "p95 ms", "msgs/delivery", "views installed"],
        rows,
        note=(
            "Shape: failure-free ordering is cheap (one sequencer hop); the "
            "sequencer crash blocks abcast for ~the exclusion timeout (400 ms) "
            "because abcast depends on the membership below it (Sec. 2.3.2)."
        ),
    )
    # The recovery latency is dominated by the exclusion timeout.
    r.check("crash_blocks_until_exclusion", "sequencer crash -> next delivery ms",
            recovery, ">=", 400.0)
    return r
