"""Fig. 7 — the new architecture, augmented with generic broadcast.

Regenerates the thrifty property the figure adds to the overview stack:
atomic broadcast is invoked ONLY when conflicting messages are actually
broadcast.  We sweep the fraction of conflicting traffic from 0 to 1 and
measure how often the generic broadcast component had to fall back to
atomic broadcast, and what it cost.
"""

from common import Group, Result

from repro.gbcast.conflict import ConflictRelation
from repro.sim.randomness import fork_rng

#: "commuting" messages never conflict; "ordered" conflict with everything.
RELATION = ConflictRelation.build(
    ["commuting", "ordered"],
    [("ordered", "ordered"), ("ordered", "commuting")],
)

MESSAGES = 24


def run_mix(conflict_fraction, seed=20):
    g = Group("new", 3, seed=seed, conflict=RELATION)
    rng = fork_rng(seed, f"mix-{conflict_fraction}")
    pids = sorted(g.stacks)
    ordered_count = round(MESSAGES * conflict_fraction)
    classes = ["ordered"] * ordered_count + ["commuting"] * (MESSAGES - ordered_count)
    rng.shuffle(classes)
    for i, msg_class in enumerate(classes):
        g.send(pids[i % len(pids)], ("m", i), msg_class, at=g.world.now + (i % 6) * 5.0)
    g.drain(MESSAGES)
    counters = g.world.metrics.counters
    lat = g.world.metrics.latency
    return [
        f"{conflict_fraction:.0%}",
        counters.get("consensus.proposals"),
        counters.get("gbcast.endstages"),
        counters.get("gbcast.conflicts_detected"),
        lat.stats("gbcast.commuting").mean,
        lat.stats("gbcast.ordered").mean,
    ]


def scenario_fig7_new_augmented() -> Result:
    r = Result()
    rows = [run_mix(f) for f in (0.0, 0.25, 0.5, 1.0)]
    r.table(
        "Fig. 7  New architecture (augmented): generic broadcast over abcast",
        ["conflicting traffic", "consensus proposals", "stage closures",
         "conflicts detected", "commuting latency ms", "ordered latency ms"],
        rows,
        note=(
            "Shape: with 0% conflicting traffic atomic broadcast (consensus) is "
            "NEVER invoked (the thrifty property, Sec. 3.2.1); closures and "
            "consensus grow with the conflict rate, and non-conflicting traffic "
            "stays cheaper than conflicting traffic throughout."
        ),
    )
    # 0% conflicts: zero consensus, pure fast path.
    r.check("no_consensus_without_conflicts", "at 0 % conflicting",
            {"consensus proposals": rows[0][1], "stage closures": rows[0][2]}, "==", 0)
    # Conflicts cost consensus; monotone-ish growth across the sweep.
    r.check("conflicts_cost_consensus", "consensus proposals at 100 %", rows[3][1], ">", 0)
    r.check("closures_grow_with_conflicts", "stage closures at 100 % vs 25 %",
            rows[3][2], ">=", rows[1][2])
    return r
