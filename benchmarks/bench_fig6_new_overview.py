"""Fig. 6 — the new architecture, overview version.

The inversion that defines the paper: atomic broadcast (consensus + ◇S
failure detection) does NOT rely on membership — it keeps delivering with
f < n/2 crashes and no view change — while group membership is a mere
*client* of atomic broadcast (views ride the same total order as
messages).
"""

from common import Group, Result, per_delivery_messages

from repro.core.new_stack import StackConfig
from repro.monitoring.component import MonitoringPolicy


def scenario_fig6_new_overview() -> Result:
    r = Result()
    config = StackConfig(
        suspicion_timeout=60.0,
        monitoring=MonitoringPolicy(exclusion_timeout=100_000.0),  # no exclusions
    )
    g = Group("new-abcast", 5, seed=10, config=config)
    world = g.world
    counters = world.metrics.counters
    for i in range(10):
        g.send("p00", ("pre", i))
    g.drain(10)
    stats = world.metrics.latency.stats("abcast")
    rows = [["failure-free (n=5)", stats.mean, per_delivery_messages(world, 50),
             counters.get("gm.views_installed")]]

    # Crash f = 2 < n/2: abcast continues with NO membership change.
    world.crash("p03")
    world.crash("p04")
    crash_at = world.now
    for i in range(10):
        g.send("p01", ("post", i))
    alive = ["p00", "p01", "p02"]
    g.drain(20, alive)
    recovery_window = world.now - crash_at
    rows.append(
        ["2 crashes (f<n/2), no exclusion", recovery_window, float("nan"),
         counters.get("gm.views_installed")]
    )

    # Membership change = one abcast message like any other.
    g.stacks["p00"].membership.remove("p03")
    assert world.run_until(
        lambda: "p03" not in g.stacks["p00"].membership.view, timeout=60_000
    )
    rows.append(["remove(p03) via abcast", float("nan"), float("nan"),
                 counters.get("gm.views_installed")])
    r.table(
        "Fig. 6  New architecture (overview): FD / consensus / abcast / membership",
        ["phase", "time ms", "msgs/delivery", "view installations (sum over procs)"],
        rows,
        note=(
            "Shape: 2 of 5 members crash and ordering continues with ZERO view "
            "changes (views installed stays 0 until the explicit remove) — "
            "atomic broadcast does not rely on membership (Sec. 3.1.1)."
        ),
    )
    r.check("survivors_agree", "survivors whose log differs from p00's",
            sum(g.log(p) != g.log("p00") for p in alive), "==", 0)
    # The explicit remove is the FIRST view change of the whole run
    # (installed once at each of the three survivors).
    r.check("first_view_change_is_the_remove", "views installed",
            {row[0]: row[3] for row in rows}, "==",
            {rows[0][0]: 0, rows[1][0]: 0, rows[2][0]: 3})
    return r
