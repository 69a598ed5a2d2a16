"""Fig. 5 — the Ensemble sample protocol stack (modular composition).

Regenerates the figure's composition and the two behaviours the paper
highlights: stability notifications that bounce off the bottom of the
stack, and the efficiency rationale for placing the application BELOW
the membership components (event hops on the hot path).
"""

from common import Group, Result

from repro.net.topology import LinkModel
from repro.traditional.ensemble import EnsembleStack


def scenario_fig5_ensemble() -> Result:
    r = Result()
    g = Group("ensemble", 3, seed=8, link=LinkModel(1.0, 1.0), exclusion_timeout=300.0)
    # Send from a non-sequencer so the latency includes the fwd hop.
    for i in range(10):
        g.send("p01", ("m", i))
    g.drain(10)
    world = g.world
    counters = world.metrics.counters
    hops_normal = counters.get("ens.event_hops")
    stats = world.metrics.latency.stats("abcast")
    app_index = EnsembleStack.LAYERS.index("app_interface")
    layers_above_app = len(EnsembleStack.LAYERS) - app_index - 1

    # View change: Sync blocks the group.
    world.crash("p00")
    assert world.run_until(
        lambda: g.stacks["p01"].view().members == ("p01", "p02"), timeout=60_000
    )
    g.send("p01", "after")
    assert world.run_until(lambda: "after" in g.log("p02"), timeout=60_000)
    bounces = counters.get("ens.bounces")
    blocked_ms = sum(world.metrics.latency.samples("vs.blocked"), 0.0)
    r.table(
        "Fig. 5  Ensemble sample stack  (bottom->top: "
        + " / ".join(EnsembleStack.LAYERS) + ")",
        ["metric", "value"],
        [
            ["delivery latency mean (ms)", stats.mean],
            ["event hops (10 multicasts, normal path)", hops_normal],
            ["messages detected stable", counters.get("ens.stabilized")],
            ["stability events bounced at stack bottom", bounces],
            ["layers BELOW app (hot path)", app_index],
            ["layers ABOVE app (abnormal scenarios)", layers_above_app],
            ["Sync blocking episodes on view change", counters.get("vs.blocks")],
            ["total sender-blocked time (ms)", blocked_ms],
        ],
        note=(
            "Shape: hot-path components (fifo/stable/abcast) sit below the "
            "application, failure handling (fd/sync/membership) above it "
            "(Sec. 2.2); stability notifications bounce; Sync blocks senders "
            "during the view change (the Sec. 4.4 cost)."
        ),
    )
    r.check("stability_events_bounce", "stability events bounced", bounces, ">=", 1)
    r.check("sync_blocks_senders", "sender-blocked ms", blocked_ms, ">", 0)
    r.check("failure_handling_above_app", "layers above the application",
            layers_above_app, "==", 3)
    return r
