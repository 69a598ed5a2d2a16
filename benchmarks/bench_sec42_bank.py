"""Section 4.2 — "more powerful stack": the replicated bank account.

Sweeps the withdrawal fraction of a deposit/withdrawal workload over two
configurations:

* generic broadcast with the bank conflict relation (deposits commute);
* the traditional alternative — atomic broadcast for everything.

Reported per point: mean request latency for deposits, consensus
proposals (the ordering work actually performed), and final-balance
consistency.  The paper's claim: the generic-broadcast stack is strictly
cheaper at low withdrawal rates and converges to the atomic cost as the
conflict rate goes to 1.

Both sides are this repo's generic broadcast, and the all-conflicting
side is cheap on purpose: an ENDSTAGE orders its closure set *and*
everything pending behind it, so this 20-op burst costs it a handful of
consensus instances, not one per op (53.0 ms and 57 proposals before
that, 11.1 ms and 6 since).  What is guarded is therefore the order of
the two columns, not a factor; a stack that can *only* order pays the
factor, and ``bench_xarch_comparison.py`` holds that comparison.
"""

from common import once, report, teardown_leaks

from repro.gbcast.conflict import ConflictRelation, bank_relation
from repro.core.new_stack import build_new_group
from repro.replication.bank import attach_bank_replicas, bank_audit
from repro.replication.client import spawn_client
from repro.sim.randomness import fork_rng
from repro.sim.world import World

OPS_PER_CLIENT = 10
CLIENTS = 2


def run_point(withdraw_fraction, conflict, seed=31):
    world = World(seed=seed)
    stacks = build_new_group(world, 3, conflict=conflict)
    replicas = attach_bank_replicas(stacks, initial_balance=1_000)
    clients = [
        spawn_client(world, sorted(stacks), mode="primary", retry_timeout=1_000.0)
        for _ in range(CLIENTS)
    ]
    world.start()
    rng = fork_rng(seed, f"bank-{withdraw_fraction}")
    for client in clients:
        for i in range(OPS_PER_CLIENT):
            if rng.random() < withdraw_fraction:
                client.submit(("withdraw", 10), label="withdraw")
            else:
                client.submit(("deposit", 10), label="deposit")
    assert world.run_until(
        lambda: all(len(c.completed) == OPS_PER_CLIENT for c in clients),
        timeout=300_000,
    )
    assert world.run_until(lambda: bank_audit(replicas)["consistent"], timeout=120_000)
    dep = world.metrics.latency.stats("request.deposit")
    wdr = world.metrics.latency.stats("request.withdraw")
    return {
        "deposit_ms": dep.mean,
        "withdraw_ms": wdr.mean,
        "consensus": world.metrics.counters.get("consensus.proposals"),
        # Which round each consensus instance decided in (empty when the
        # conflict relation needed no consensus at all) — the round-0
        # fast-path fraction in the bench ``decision_path`` block.
        "decided_rounds": dict(
            sorted(world.metrics.counters.by_prefix("consensus.decided_round_").items())
        ),
        "balance": bank_audit(replicas)["balances"]["p00"],
        "leaked": teardown_leaks(world),
    }


def test_sec42_bank(benchmark, capsys):
    fractions = (0.0, 0.1, 0.3, 1.0)

    def run_all():
        rows = []
        for f in fractions:
            gb = run_point(f, bank_relation())
            atomic = run_point(f, ConflictRelation.always())
            rows.append([
                f"{f:.0%}",
                gb["deposit_ms"], atomic["deposit_ms"],
                gb["consensus"], atomic["consensus"],
                gb["balance"] == atomic["balance"],
            ])
        return rows

    rows = once(benchmark, run_all)
    report(
        capsys,
        "Sec. 4.2  Bank account: generic broadcast vs. atomic-for-everything "
        f"({CLIENTS} clients x {OPS_PER_CLIENT} ops, n=3)",
        ["withdrawals", "GB deposit ms", "ABcast deposit ms",
         "GB consensus", "ABcast consensus", "same final balance"],
        rows,
        note=(
            "Shape: at 0% withdrawals generic broadcast runs ZERO consensus and "
            "its deposits are strictly faster; as the withdrawal (conflict) "
            "rate grows the gap closes — generic broadcast degrades gracefully "
            "to atomic broadcast (Sec. 3.2.1) while never losing consistency.  "
            "The gap is a round trip, not a multiple: a conflict burst costs "
            "one consensus instance, whichever relation reports the conflicts."
        ),
    )
    # 0% withdrawals: thrifty => no consensus, and strictly faster deposits.
    assert rows[0][3] == 0
    assert rows[0][1] < rows[0][2]
    # 10% / 30%: never slower than ordering everything.
    assert all(r[1] <= r[2] for r in rows[1:3])
    # Consistency at every point.
    assert all(r[5] for r in rows)
    # The GB ordering work never shrinks as the withdrawal share grows.
    assert rows[0][3] <= rows[1][3] <= rows[2][3] <= rows[3][3]


def test_sec42_bank_group_size(benchmark, capsys):
    """Group-size sensitivity of the deposit fast path (n = 3, 5, 7)."""

    def run_all():
        rows = []
        for n in (3, 5, 7):
            world = World(seed=32)
            stacks = build_new_group(world, n, conflict=bank_relation())
            replicas = attach_bank_replicas(stacks, initial_balance=100)
            client = spawn_client(world, sorted(stacks), mode="primary", retry_timeout=1_000.0)
            world.start()
            for i in range(10):
                client.submit(("deposit", 1), label="deposit")
            assert world.run_until(
                lambda: len(client.completed) == 10, timeout=300_000
            )
            assert world.run_until(lambda: bank_audit(replicas)["consistent"], timeout=120_000)
            dep = world.metrics.latency.stats("request.deposit")
            rows.append([n, dep.mean, world.metrics.counters.get("consensus.proposals")])
        return rows

    rows = once(benchmark, run_all)
    report(
        capsys,
        "Sec. 4.2  Deposit fast path vs. group size",
        ["replicas", "deposit latency ms", "consensus proposals"],
        rows,
        note="Shape: the all-ack fast path stays consensus-free at every group "
        "size; latency grows mildly with n (more acks to collect).",
    )
    assert all(r[2] == 0 for r in rows)
