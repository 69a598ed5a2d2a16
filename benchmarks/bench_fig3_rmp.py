"""Fig. 3 — the RMP architecture (token abcast / fault-free membership /
fault-tolerant membership).

Regenerates the figure's split-membership design: joins and leaves ride
the ring's own total order (NO reformation — the paper notes this
anticipates the new architecture), while a crash needs the two-phase
fault-tolerant membership to recover the ring.
"""

from common import once, report

from repro.net.topology import LinkModel
from repro.sim.world import World
from repro.traditional.rmp import RMPStack, RingConfig, add_rmp_joiner, build_rmp_group


def run_rmp():
    rows = []
    world = World(seed=4, default_link=LinkModel(1.0, 1.0))
    stacks = build_rmp_group(world, 3, config=RingConfig(exclusion_timeout=300.0))
    world.start()
    for i in range(10):
        stacks["p00"].abcast_payload(("m", i))
    assert world.run_until(
        lambda: all(len(s.delivered_payloads()) == 10 for s in stacks.values()),
        timeout=60_000,
    )
    counters = world.metrics.counters
    stats = world.metrics.latency.stats("abcast")
    rows.append(
        ["failure-free ordering", stats.mean, counters.get("abcast.token_passes"),
         counters.get("reform.initiated"), "total order ok"]
    )

    # Fault-free membership: join + leave via the ring itself.
    joiner = add_rmp_joiner(world, stacks)
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
    sender = stacks[next(pid for pid in view.members if pid != victim)]
    world.crash(victim)
    crash_at = world.now
    sender.abcast_payload("post-crash")
    assert world.run_until(
        lambda: "post-crash" in sender.delivered_payloads(), timeout=60_000
    )
    recovery = world.now - crash_at
    rows.append(
        ["crash -> 2PC reformation", recovery, counters.get("abcast.token_passes"),
         counters.get("reform.initiated"), f"view={sender.view()}"]
    )
    return rows, reforms_after_membership, recovery


def test_fig3_rmp(benchmark, capsys):
    rows, reforms_after_membership, recovery = once(benchmark, run_rmp)
    report(
        capsys,
        "Fig. 3  RMP stack  (layers: " + " / ".join(RMPStack.LAYERS) + ")",
        ["phase", "latency ms", "token passes", "reformations", "outcome"],
        rows,
        note=(
            "Shape: fault-free joins/leaves cost ZERO reformations (they ride "
            "the ring's total order, Sec. 2.1.3); only the crash triggers the "
            "two-phase fault-tolerant membership, after the exclusion timeout."
        ),
    )
    assert reforms_after_membership == 0
    assert recovery >= 300.0
