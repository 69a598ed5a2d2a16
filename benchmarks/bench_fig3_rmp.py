"""Fig. 3 — the RMP architecture (token abcast / fault-free membership /
fault-tolerant membership).

Regenerates the figure's split-membership design: joins and leaves ride
the ring's own total order (NO reformation — the paper notes this
anticipates the new architecture), while a crash needs the two-phase
fault-tolerant membership to recover the ring.
"""

from common import Group, Result

from repro.net.topology import LinkModel
from repro.sim.world import add_joiner
from repro.traditional.rmp import RMPStack


def scenario_fig3_rmp() -> Result:
    r = Result()
    g = Group("rmp", 3, seed=4, link=LinkModel(1.0, 1.0), exclusion_timeout=300.0)
    for i in range(10):
        g.send("p00", ("m", i))
    g.drain(10)
    world, stacks = g.world, g.stacks
    counters = world.metrics.counters
    stats = world.metrics.latency.stats("abcast")
    rows = [
        ["failure-free ordering", stats.mean, counters.get("abcast.token_passes"),
         counters.get("reform.initiated"), "total order ok"]
    ]

    # Fault-free membership: join + leave via the ring itself.
    joiner = add_joiner(world, stacks)
    joiner.membership.request_join("p00")
    assert world.run_until(lambda: joiner.view() is not None, timeout=60_000)
    stacks["p00"].membership.leave("p02")
    assert world.run_until(
        lambda: "p02" not in stacks["p00"].view(), timeout=60_000
    )
    reforms_after_membership = counters.get("reform.initiated")
    rows.append(
        ["join + leave (fault-free path)", float("nan"),
         counters.get("abcast.token_passes"), reforms_after_membership,
         f"view={stacks['p00'].view()}"]
    )

    # Failure: the ring breaks; two-phase reformation recovers it.  The
    # victim is whoever is about to receive the token, so the token dies
    # with it (a fixed pid only breaks the ring if the token is on it).
    view = stacks["p00"].view()
    holder = max(view.members, key=lambda pid: stacks[pid].abcast.last_token_seen)
    victim = view.successor(holder)
    sender = next(pid for pid in view.members if pid != victim)
    recovery = g.after_crash(victim, sender)
    rows.append(
        ["crash -> 2PC reformation", recovery, counters.get("abcast.token_passes"),
         counters.get("reform.initiated"), f"view={stacks[sender].view()}"]
    )
    r.table(
        "Fig. 3  RMP stack  (layers: " + " / ".join(RMPStack.LAYERS) + ")",
        ["phase", "latency ms", "token passes", "reformations", "outcome"],
        rows,
        note=(
            "Shape: fault-free joins/leaves cost ZERO reformations (they ride "
            "the ring's total order, Sec. 2.1.3); only the crash triggers the "
            "two-phase fault-tolerant membership, after the exclusion timeout."
        ),
    )
    r.check("membership_changes_need_no_reformation", "reformations after join + leave",
            reforms_after_membership, "==", 0)
    r.check("crash_reformation_waits_for_exclusion", "crash -> next delivery ms",
            recovery, ">=", 300.0)
    return r
