"""Fig. 8 — generic broadcast for passive replication: the update /
primary-change race.

Regenerates the figure's scenario: at (approximately) time t the primary
g-broadcasts an update while a backup g-broadcasts primary-change(s1).
The conflict relation admits exactly two outcomes — update ordered
first, or change ordered first (update ignored, client retries) — and
never a divergent mix.

"Approximately" is swept: the primary-change leads the update by 0 to
4 ms.  Fired in the same instant the update always wins — the primary is
the round-0 coordinator and proposes its own value first; from about one
link delay of lead on the change wins; in between the seed decides.
"""

from common import once, report

from repro.gbcast.conflict import PASSIVE_REPLICATION, PRIMARY_CHANGE, UPDATE
from repro.core.new_stack import build_new_group
from repro.replication.primary_backup import attach_passive_replicas
from repro.sim.world import World

#: Lead (ms) of primary-change over the update, times seeds per lead.
LEADS = (0.0, 1.0, 2.0, 2.5, 3.0, 4.0)
SEEDS = range(5)


def apply_kv(state, command):
    key, value = command
    new_state = dict(state)
    new_state[key] = value
    return new_state, ("stored", key, value)


def race(seed, lead=0.0):
    world = World(seed=seed)
    stacks = build_new_group(world, 3, conflict=PASSIVE_REPLICATION)
    replicas = attach_passive_replicas(stacks, apply_kv, {})
    world.start()
    world.run_for(50.0)
    stacks["p01"].gbcast.gbcast_payload(("primary_change", "p00"), PRIMARY_CHANGE)
    world.run_for(lead)
    stacks["p00"].gbcast.gbcast_payload(
        ("update", 0, "client", 0, {"req": "done"}, ("stored", "req", "done")), UPDATE
    )
    assert world.run_until(
        lambda: all(r.epoch == 1 for r in replicas.values()), timeout=60_000
    )
    world.run_until(
        lambda: all(
            len([m for m, _p in s.gbcast.delivered_log if not m.msg_class.startswith("_")]) == 2
            for s in stacks.values()
        ),
        timeout=60_000,
    )
    applied = {r.state.get("req") for r in replicas.values()}
    assert len(applied) == 1, "replicas diverged"
    rotated_ok = all(tuple(r.server_list) == ("p01", "p02", "p00") for r in replicas.values())
    still_member = all("p00" in s.membership.view for s in stacks.values())
    outcome = "update-first" if applied.pop() == "done" else "change-first"
    return outcome, rotated_ok, still_member


def test_fig8_passive_replication(benchmark, capsys):
    def run_all():
        by_lead = {lead: {"update-first": 0, "change-first": 0} for lead in LEADS}
        all_rotated = all_member = True
        for lead in LEADS:
            for seed in SEEDS:
                outcome, rotated_ok, still_member = race(seed, lead)
                by_lead[lead][outcome] += 1
                all_rotated &= rotated_ok
                all_member &= still_member
        return by_lead, all_rotated, all_member

    by_lead, all_rotated, all_member = once(benchmark, run_all)
    report(
        capsys,
        f"Fig. 8  Passive replication race: update || primary-change, "
        f"{len(SEEDS)} seeds per lead",
        ["change leads by", "case 1: update first", "case 2: change first, update stale",
         "view after", "old primary excluded?"],
        [
            [f"{lead} ms", counts["update-first"], counts["change-first"], "[s2;s3;s1]", "no"]
            for lead, counts in by_lead.items()
        ],
        note=(
            "Shape: only the paper's two outcomes ever occur, both end with the "
            "rotated view [s2;s3;s1], the old primary stays in the membership, "
            "and the replicas never diverge (Sec. 3.2.3)."
        ),
    )
    assert sum(c["update-first"] for c in by_lead.values()) > 0
    assert sum(c["change-first"] for c in by_lead.values()) > 0
    assert all_rotated and all_member
