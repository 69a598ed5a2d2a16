"""Table 2 (Section 3.3) — the rbcast / abcast conflict relation of the
generic broadcast component's client operations.

Exercises all four cells through the generic broadcast classes the
application facade uses: two concurrent rbcasts may reorder;
rbcast/abcast and abcast/abcast pairs are totally ordered; and a
pure-rbcast workload never invokes consensus (the cheap cell really is
cheap).
"""

from bench_tab1_conflict_update import SEEDS, race_pair
from common import Result


def scenario_tab2_conflict_relation() -> Result:
    r = Result()
    rows = []
    for a, b, conflicts in (
        ("rbcast", "rbcast", False),
        ("rbcast", "abcast", True),
        ("abcast", "abcast", True),
    ):
        diverged = consensus_ever = False
        for seed in SEEDS:
            orders, used = race_pair(a, b, seed)
            diverged |= len(orders) > 1
            consensus_ever |= used
        rows.append([f"{a} / {b}",
                     "conflict" if conflicts else "no conflict",
                     "observed" if diverged else "never",
                     "yes" if consensus_ever else "no"])
    r.table(
        "Table 2 (Sec. 3.3)  rbcast / abcast conflict relation, 20 seeds/cell",
        ["operations", "paper cell", "cross-process reorder", "consensus ever invoked"],
        rows,
        note=(
            "Shape: rbcast/rbcast never needs consensus and may reorder; any "
            "pair involving abcast is totally ordered across processes.  "
            "Generic broadcast subsumes both primitives under one component "
            "(Sec. 3.3, Fig. 9)."
        ),
    )
    r.check("rbcast_pairs_need_no_consensus", "consensus ever invoked for rbcast / rbcast",
            rows[0][3], "==", "no")
    r.check("abcast_pairs_never_reorder", "cross-process reorder",
            {row[0]: row[2] for row in rows[1:]}, "==", "never")
    return r
