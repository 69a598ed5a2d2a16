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

from common import Result

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
    """One race; returns the states the replicas applied (one, unless
    they diverged), whether every replica rotated its server list to
    [s2;s3;s1] and whether the old primary is still a member."""
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
    rotated_ok = all(tuple(r.server_list) == ("p01", "p02", "p00") for r in replicas.values())
    still_member = all("p00" in s.membership.view for s in stacks.values())
    return applied, rotated_ok, still_member


def scenario_fig8_passive_replication() -> Result:
    r = Result()
    by_lead = {lead: {"update-first": 0, "change-first": 0} for lead in LEADS}
    diverged = not_rotated = excluded = 0
    for lead in LEADS:
        for seed in SEEDS:
            applied, rotated_ok, still_member = race(seed, lead)
            diverged += len(applied) != 1
            by_lead[lead]["update-first" if "done" in applied else "change-first"] += 1
            not_rotated += not rotated_ok
            excluded += not still_member
    r.table(
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
    r.check("replicas_never_diverge", "races whose replicas diverged", diverged, "==", 0)
    r.check("both_outcomes_occur", "races won",
            {outcome: sum(c[outcome] for c in by_lead.values())
             for outcome in ("update-first", "change-first")}, ">", 0)
    r.check("rotated_view_old_primary_kept", "races that",
            {"did not rotate to [s2;s3;s1]": not_rotated,
             "excluded the old primary": excluded}, "==", 0)
    return r
