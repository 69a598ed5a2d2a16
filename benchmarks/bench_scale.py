"""Group-size scaling of the new architecture.

Not a paper figure, but the obvious question a reader asks of a
consensus-based stack: how do latency and message cost grow with the
group size?  We sweep n = 3..9 for both the atomic path (consensus) and
the generic broadcast fast path (all-ack), failure-free.
"""

from common import Group, Result

from repro.gbcast.conflict import RBCAST_ABCAST, ConflictRelation

BURST = 10
FREE = ConflictRelation.build(["free"], [])


def run_scale(n, msg_class, conflict):
    g = Group("new", n, seed=80 + n, conflict=conflict)
    pids = sorted(g.stacks)
    for i in range(BURST):
        g.send(pids[i % n], ("m", i), msg_class)
    g.drain(BURST)
    stats = g.world.metrics.latency.stats("gbcast")
    msgs = g.world.metrics.counters.get("net.sent") / (BURST * n)
    return stats.mean, msgs


def scenario_scale_group_size() -> Result:
    r = Result()
    rows = []
    for n in (3, 5, 7, 9):
        fast_lat, fast_msgs = run_scale(n, "free", FREE)
        atomic_lat, atomic_msgs = run_scale(n, "abcast", RBCAST_ABCAST)
        rows.append([n, fast_lat, fast_msgs, atomic_lat, atomic_msgs])
    r.table(
        f"Scaling with group size ({BURST} broadcasts, failure-free)",
        ["n", "fast path latency ms", "fast msgs/delivery",
         "atomic latency ms", "atomic msgs/delivery"],
        rows,
        note=(
            "Shape: the all-ack fast path stays flat-ish in latency (two "
            "steps, more acks), while the conflicting path grows with n "
            "(consensus rounds + relayed broadcasts) — the price of total "
            "order the paper's generic broadcast avoids paying for "
            "commutative traffic."
        ),
    )
    r.check("fast_path_faster_at_every_size", "latency ms, fast path vs atomic",
            {f"n={row[0]}": row[1] for row in rows}, "<",
            {f"n={row[0]}": row[3] for row in rows})
    # Latency growth exists but is modest for the fast path.
    r.check("fast_path_growth_modest", "fast path latency ms at n=9 vs 4 × n=3",
            rows[-1][1], "<", rows[0][1] * 4)
    return r
