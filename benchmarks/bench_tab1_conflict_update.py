"""Table 1 (Section 3.2.3) — the update / primary-change conflict relation.

Exercises all four cells of the table with concurrent message pairs over
many seeds and reports what the relation bought: conflicting cells give
identical relative order at every process; the non-conflicting cell
(update/update) is allowed to — and does — reorder.
"""

from common import Group, Result

from repro.gbcast.conflict import PASSIVE_REPLICATION, PRIMARY_CHANGE, UPDATE, RBCAST_ABCAST

SEEDS = range(20)


def race_pair(class_a, class_b, seed, conflict=RBCAST_ABCAST):
    """Two concurrent messages from different senders, 30 ms into a run;
    returns the set of per-process delivery orders of the pair and
    whether consensus ran."""
    g = Group("new", 3, seed=seed, conflict=conflict)
    g.world.run_for(30.0)
    g.send("p00", "A", class_a)
    g.send("p01", "B", class_b)
    orders = {tuple(log) for log in g.drain(2).values()}
    return orders, g.world.metrics.counters.get("consensus.proposals") > 0


def scenario_tab1_conflict_relation() -> Result:
    r = Result()
    rows = []
    for a, b, conflicts in (
        (UPDATE, UPDATE, False),
        (UPDATE, PRIMARY_CHANGE, True),
        (PRIMARY_CHANGE, PRIMARY_CHANGE, True),
    ):
        observed_orders = set()
        diverged = False
        for seed in SEEDS:
            orders, _consensus = race_pair(a, b, seed, PASSIVE_REPLICATION)
            diverged |= len(orders) > 1
            observed_orders |= orders
        rows.append([f"{a} / {b}",
                     "conflict" if conflicts else "no conflict",
                     "allowed" if not conflicts else "FORBIDDEN",
                     "observed" if diverged else "never",
                     len(observed_orders)])
    r.table(
        "Table 1 (Sec. 3.2.3)  update / primary-change conflict relation, 20 seeds/cell",
        ["message pair", "paper cell", "cross-process reorder", "reorder observed", "distinct orders seen"],
        rows,
        note=(
            "Shape: the conflicting cells (update/primary-change and "
            "primary-change/primary-change) are NEVER delivered in different "
            "orders at different processes; the commuting cell (update/update) "
            "is free to reorder — and cheaper for it."
        ),
    )
    # update/update: divergence permitted (not required); conflicting
    # cells: divergence must never happen.
    r.check("conflicting_cells_never_reorder", "reorder observed",
            {row[0]: row[3] for row in rows[1:]}, "==", "never")
    return r
