"""Fig. 2 — the Phoenix architecture (consensus / membership+VS / abcast).

Regenerates both behaviours the paper credits to Phoenix: view changes
decided by the bottom consensus layer, and process-level membership —
the S/S' scenario of Section 2.1.2, where two replicated services keep
progressing in *different* components of a partitioned network.
"""

from common import Group, Result

from repro.net.topology import LinkModel
from repro.sim.world import World, build_group
from repro.traditional.phoenix import PhoenixStack


def scenario_fig2_phoenix() -> Result:
    r = Result()
    # Failure-free ordering + consensus-decided view change.
    g = Group("phoenix", 3, seed=2, link=LinkModel(1.0, 1.0), exclusion_timeout=300.0)
    for i in range(10):
        g.send("p00", ("m", i))
    g.drain(10)
    world, stacks = g.world, g.stacks
    stats = world.metrics.latency.stats("abcast")
    rows = [["failure-free ordering", stats.mean, 0, "n/a"]]
    world.crash("p02")
    assert world.run_until(
        lambda: stacks["p00"].view().members == ("p00", "p01"), timeout=60_000
    )
    rows.append(
        ["crash -> view change", float("nan"),
         world.metrics.counters.get("pvs.view_proposals"), str(stacks["p00"].view())]
    )

    # S/S' partition scenario.
    world2 = World(seed=3, default_link=LinkModel(1.0, 1.0))
    s = build_group(world2, 3, PhoenixStack, exclusion_timeout=250.0)
    sp = build_group(world2, 3, PhoenixStack, exclusion_timeout=250.0)  # p03 p04 p05
    world2.start()
    world2.run_for(100.0)
    world2.split([["p00", "p01", "p03"], ["p02", "p04", "p05"]])
    s["p00"].abcast_payload("s-up")
    sp["p04"].abcast_payload("sp-up")
    both = world2.run_until(
        lambda: "s-up" in s["p01"].delivered_payloads()
        and "sp-up" in sp["p05"].delivered_payloads(),
        timeout=60_000,
    )
    rows.append(
        ["partition: service S in Pi1", float("nan"),
         0, f"progressed={'s-up' in s['p01'].delivered_payloads()} view={s['p00'].view()}"]
    )
    rows.append(
        ["partition: service S' in Pi2", float("nan"),
         0, f"progressed={'sp-up' in sp['p05'].delivered_payloads()} view={sp['p04'].view()}"]
    )
    r.table(
        "Fig. 2  Phoenix stack  (layers: " + " / ".join(PhoenixStack.LAYERS) + ")",
        ["phase", "latency mean ms", "view proposals", "outcome"],
        rows,
        note=(
            "Shape: view changes are consensus decisions (robust to concurrent "
            "initiators); process-level membership lets S progress in Pi1 while "
            "S' progresses in Pi2 during the partition (Sec. 2.1.2)."
        ),
    )
    r.check("both_partitions_progress", "S and S' both delivered", both, "==", True)
    return r
