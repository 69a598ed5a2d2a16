"""Section 4.1 — "less complex stack": the ordering problem is solved once.

Static dimension: in how many distinct components does each architecture
solve an ordering problem?  Dynamic dimension: how many distinct ordering
*protocols* actually execute in a run that includes a membership change?
The new architecture funnels everything (messages, view changes, stage
closures) through the single consensus-based atomic broadcast.  The same
run is the §4.1 cost profile of ``BENCH_abgb.json``.
"""

from common import (
    Group,
    Result,
    causal_trees_complete,
    critical_path_block,
    decision_path_block,
    round0_dominates,
    teardown_leaks,
    world_metrics,
)

from repro.traditional.ensemble import EnsembleStack
from repro.traditional.isis import IsisStack
from repro.traditional.phoenix import PhoenixStack
from repro.traditional.rmp import RMPStack
from repro.traditional.totem import TotemStack

NEW_ARCH_ORDERING_SOLVERS = [
    "atomic broadcast (orders messages, view changes, and — via stage "
    "closure — conflicting generic broadcasts)",
]


def scenario_sec41_complexity() -> Result:
    traditional = {
        stack.__name__.replace("Stack", ""): stack.ORDERING_SOLVERS
        for stack in (IsisStack, PhoenixStack, RMPStack, TotemStack, EnsembleStack)
    }
    # Traffic plus a membership change: which ordering mechanisms ran?
    g = Group("new", 3, seed=30)
    world, stacks = g.world, g.stacks
    for i in range(5):
        g.send("p00", ("m", i))
    stacks["p01"].membership.remove("p02")
    assert world.run_until(
        lambda: stacks["p00"].membership.view.id == 1, timeout=60_000
    ), "the view change was not installed"
    # Views were ordered by...? They rode abcast: no separate protocol ran.
    ran_consensus = world.metrics.counters.get("consensus.decided")
    dynamic = ["consensus sequence (abcast)"] if ran_consensus else []
    # The view-installed exit condition fires while the tail of the
    # gbcast traffic is still in flight; drain it so those latency
    # intervals close instead of leaking.
    leaked = teardown_leaks(world)
    # Application (g-)deliveries: ``abcast.delivered`` also counts every
    # ENDSTAGE and ctl a-delivery, so a protocol that orders fewer
    # internal messages would read as costlier per delivery.
    delivered = world.metrics.counters.get("gbcast.delivered")
    cp = critical_path_block(world)
    dp = decision_path_block(world, stacks)
    r = Result("4.1", traced=[("sec41_complexity", world)])
    r.metrics = {
        "ordering_solvers": {
            "new_architecture": len(NEW_ARCH_ORDERING_SOLVERS),
            **{name: len(solvers) for name, solvers in traditional.items()},
        },
        "dynamic_mechanisms": dynamic,
        **world_metrics(world, delivered, leaked=leaked),
        "critical_path": cp,
        "decision_path": dp,
    }
    r.table(
        "Sec. 4.1  Where is the ordering problem solved?",
        ["architecture", "ordering solvers", "components that order"],
        [["new architecture", len(NEW_ARCH_ORDERING_SOLVERS),
          "; ".join(NEW_ARCH_ORDERING_SOLVERS)[:58] + "..."]]
        + [[name, len(solvers), "; ".join(s.split(" (")[0] for s in solvers)]
           for name, solvers in traditional.items()],
        note=(
            f"Dynamic check (new architecture, run incl. a view change): the "
            f"only ordering protocol that executed was {dynamic} — view changes "
            f"rode the same consensus sequence as application messages.  "
            f"Traditional stacks solve ordering in 2-3 places (views, messages, "
            f"messages-vs-views)."
        ),
    )
    r.check("new_arch_single_solver",
            "new-architecture ordering solvers vs the fewest of a traditional stack",
            len(NEW_ARCH_ORDERING_SOLVERS), "<",
            min(len(solvers) for solvers in traditional.values()))
    r.check("dynamic_single_mechanism", "ordering mechanisms that ran",
            dynamic, "==", ["consensus sequence (abcast)"])
    r.check("no_leaked_latency_intervals", "open latency intervals", leaked, "==", 0)
    r.add("causal_trees_complete", causal_trees_complete(cp))
    # Failure-free run (the membership change is voluntary, not a
    # crash): the fast path keeps every instance in round 0.
    r.add("round0_dominates", round0_dominates(dp))
    return r
