"""Section 4.3 — "higher responsiveness": post-crash latency vs. the cost
of false suspicions.

Two sweeps:

1. post-crash abcast latency as a function of the failure-detection
   timeout, for the new architecture and the Isis-style stack — both
   track the timeout;
2. the cost of a FALSE suspicion (a correct member silent for 600 ms):
   the traditional stack kills the wrongly suspected process (exclusion +
   re-join + state transfer), the new architecture shrugs it off.

Together they give the paper's conclusion: traditional stacks are forced
to use timeouts larger than the worst silent period, so their *effective*
post-crash latency is much larger than what the new architecture achieves
with a small suspicion timeout.
"""

from common import (
    Group,
    Result,
    causal_trees_complete,
    critical_path_block,
    decision_path_block,
    round_json,
    teardown_leaks,
)

from repro.core.new_stack import StackConfig
from repro.monitoring.component import MonitoringPolicy
from repro.net.topology import LinkModel

SILENCE_MS = 600.0
TIMEOUTS = (50.0, 200.0, 1_000.0)
FALSE_SUSPICION_TIMEOUTS = (100.0, 200.0)


def new_arch(timeout, seed, exclusion_timeout):
    return Group("new", 3, seed=seed, config=StackConfig(
        suspicion_timeout=timeout,
        monitoring=MonitoringPolicy(exclusion_timeout=exclusion_timeout),
    ))


def isis(timeout, seed):
    return Group("isis", 3, seed=seed, exclusion_timeout=timeout)


def post_crash(g):
    """How long after the crash of p00, 200 ms into the run, p01's next
    message takes to reach p01."""
    g.world.run_for(200.0)
    return g.after_crash("p00", "p01", "urgent")


def silence(world, pid, peers, duration):
    for dst in peers:
        world.transport.set_link(pid, dst, LinkModel(1.0, 1.0, drop_prob=1.0))
    world.scheduler.at(
        world.now + duration,
        lambda: [world.transport.set_link(pid, dst, LinkModel(1.0, 1.0)) for dst in peers],
    )


def silenced(g):
    """p02 falls silent for ``SILENCE_MS``, 200 ms into the run; the run
    goes on for five silences."""
    g.world.run_for(200.0)
    silence(g.world, "p02", ["p00", "p01"], SILENCE_MS)
    g.world.run_for(5 * SILENCE_MS)
    return g.world


def scenario_sec43_responsiveness() -> Result:
    leaks = []
    latency, rows = {}, []
    for t in TIMEOUTS:
        new_g, isis_g = new_arch(t, 3, 200_000.0), isis(t, 3)
        new_ms, isis_ms = post_crash(new_g), post_crash(isis_g)
        leaks += [teardown_leaks(new_g.world), teardown_leaks(isis_g.world)]
        latency[f"{t:.0f}ms"] = {"new_arch_ms": round_json(new_ms), "isis_ms": round_json(isis_ms)}
        rows.append([f"{t:.0f}", new_ms, isis_ms])
        if t == 200.0:
            headline = new_g.world
    # The headline run (new arch, 200 ms timeout, post-crash): where its
    # latency went and how consensus decided — a coordinator crash is
    # exactly the case where instances escape round 0 (no round-0 shape
    # rule here).
    cp, dp = critical_path_block(headline), decision_path_block(headline)

    suspicion, cost_rows = {}, []
    for t in FALSE_SUSPICION_TIMEOUTS:
        new_world = silenced(new_arch(t, 4, 20 * SILENCE_MS))
        isis_world = silenced(isis(t, 4))
        new_kills = int(new_world.processes["p02"].crashed)
        isis_kills = isis_world.metrics.counters.get("tgm.self_kills")
        leaks += [teardown_leaks(new_world), teardown_leaks(isis_world)]
        # Each kill forces a re-join and a state transfer.
        suspicion[f"{t:.0f}ms"] = {
            "new_arch_kills": new_kills,
            "isis_kills": isis_kills,
            "isis_forced_state_transfers": isis_kills,
        }
        cost_rows.append([f"{t:.0f}", new_kills, isis_kills, isis_kills])

    # Effective responsiveness: the new stack can afford the small
    # timeout; Isis is forced above the worst silent period (600 ms).
    new_effective = latency["200ms"]["new_arch_ms"]
    isis_effective = latency["1000ms"]["isis_ms"]
    r = Result("4.3", traced=[("sec43_new_arch_200ms", headline)])
    r.metrics = {
        "post_crash_latency": latency,
        "false_suspicion": suspicion["200ms"],
        "false_suspicion_100ms": suspicion["100ms"],
        "effective_advantage": round_json(isis_effective / new_effective, 2),
        "leaked_latency_intervals": sum(leaks),
        "critical_path": cp,
        "decision_path": dp,
    }
    r.table(
        "Sec. 4.3 (a)  Post-crash abcast latency vs. FD timeout",
        ["FD timeout ms", "new architecture ms", "Isis (traditional) ms"],
        rows,
        note="Both track the timeout — the question is which timeout each "
        "architecture can AFFORD.",
    )
    r.table(
        f"Sec. 4.3 (b)  Cost of a false suspicion ({SILENCE_MS:.0f} ms silence of a correct member)",
        ["FD timeout ms", "new arch: processes killed", "Isis: processes killed",
         "Isis: forced state transfers"],
        cost_rows,
        note="The traditional stack kills the wrongly suspected (correct!) "
        "process; re-inclusion needs a join + state transfer (Sec. 4.3).",
    )
    r.table(
        "Sec. 4.3 (c)  Effective responsiveness", [], [],
        f"  new architecture, 200 ms timeout (safe): {new_effective:9.1f} ms after a crash\n"
        f"  Isis, forced to 1000 ms (> {SILENCE_MS:.0f} ms silence): {isis_effective:9.1f} ms after a crash\n"
        f"  responsiveness advantage: {isis_effective / new_effective:.1f}x",
    )
    # The paper's shape: wrong suspicions are free for the new stack and
    # fatal for the traditional one...
    r.check("false_suspicion_free_for_new_arch", "new-arch processes killed",
            {k: s["new_arch_kills"] for k, s in suspicion.items()}, "==", 0)
    r.check("false_suspicion_fatal_for_isis", "Isis processes killed",
            {k: s["isis_kills"] for k, s in suspicion.items()}, ">=", 1)
    # ...so the effective post-crash latency gap is large (Isis is forced
    # to a 1000 ms timeout while the new stack safely runs 200 ms).
    r.check("effective_gap_gt_2x", "Isis effective ms (1000 ms timeout) vs 2 × new "
            "architecture's (200 ms)", isis_effective, ">", 2 * new_effective)
    r.check("no_leaked_latency_intervals", "open latency intervals", sum(leaks), "==", 0)
    r.add("causal_trees_complete", causal_trees_complete(cp))
    return r
