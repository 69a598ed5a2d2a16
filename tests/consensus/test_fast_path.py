"""Round-0 consensus fast path: latency wins, safety, interleavings.

The fast path (what every instance runs) lets the round-0 coordinator
propose without a majority estimate read,
count its own adoption as an implicit ACK, and decide locally at
majority-ACK time.  These tests pin the three wins, the safety-critical
lock-timestamp encoding (shared with classic rounds), and the
collect/abandon interleavings.
"""

from repro.explore.runner import run_scenario
from repro.explore.scenario import ScenarioConfig

from tests.conftest import run_until
from tests.consensus.test_chandra_toueg import consensus_world, everyone_decided


# ----------------------------------------------------------------------
# The fast path itself
# ----------------------------------------------------------------------
def test_round0_decide_without_estimate_read():
    world, pids, nodes, decisions = consensus_world()
    world.start()
    for pid in pids:
        nodes[pid].propose("k", f"value-from-{pid}", pids)
    assert run_until(world, lambda: everyone_decided(decisions, "k", pids))
    values = {decisions[pid]["k"] for pid in pids}
    assert len(values) == 1
    # The round-0 coordinator proposed its own value immediately.
    assert values.pop() == "value-from-p00"
    counters = world.metrics.counters
    assert counters.get("consensus.fast_path_proposals") == 1
    assert counters.get("consensus.decided_round_0") == 1
    # Nobody ever left round 0: one round entry per participant.
    assert counters.get("consensus.rounds") == len(pids)


def test_implicit_self_ack_reaches_majority_with_one_peer():
    # n = 3, one participant dead from the start: majority (2) is the
    # coordinator's implicit self-ACK plus a single network ACK.
    world, pids, nodes, decisions = consensus_world()
    world.start()
    world.run_for(10.0)
    world.crash("p02")
    for pid in ("p00", "p01"):
        nodes[pid].propose("k", pid, pids)
    alive = ["p00", "p01"]
    assert run_until(world, lambda: everyone_decided(decisions, "k", alive), timeout=20_000)
    assert {decisions[p]["k"] for p in alive} == {"p00"}


def test_coordinator_decides_locally_before_rbcast_returns():
    world, pids, nodes, _ = consensus_world()
    decided_at = {}
    for pid in pids:
        nodes[pid].on_decide(
            lambda key, value, pid=pid: decided_at.setdefault(pid, world.now)
        )
    world.start()
    for pid in pids:
        nodes[pid].propose("k", pid, pids)
    assert run_until(world, lambda: len(decided_at) == len(pids))
    # The local short-circuit fires at majority-ACK time, strictly
    # before the DECIDE rbcast loops back over any link.
    assert decided_at["p00"] < min(decided_at[p] for p in ("p01", "p02"))
    assert world.metrics.counters.get("consensus.fast_path_local_decides") == 1


def test_singleton_group_decides_instantly():
    world, pids, nodes, decisions = consensus_world(count=1)
    world.start()
    nodes["p00"].propose("solo", "only-value", pids)
    # Majority of 1 is the implicit self-ACK: no network round at all.
    assert decisions["p00"]["solo"] == "only-value"


def test_fast_path_tolerates_coordinator_crash_after_propose():
    # Crash the round-0 coordinator right after its fast-path PROPOSE is
    # out (before the decision spreads): survivors must agree in a later
    # round, on a value that is safe w.r.t. any round-0 majority.
    world, pids, nodes, decisions = consensus_world(suspicion_timeout=40.0)
    world.start()
    for pid in pids:
        nodes[pid].propose("k", pid, pids)
    assert world.metrics.counters.get("consensus.fast_path_proposals") == 1
    world.crash("p00")  # propose sent, no ACK processed yet
    alive = ["p01", "p02"]
    assert run_until(world, lambda: everyone_decided(decisions, "k", alive), timeout=30_000)
    assert len({decisions[p]["k"] for p in alive}) == 1
    counters = world.metrics.counters
    assert counters.get("consensus.decided_round_0") == 0
    assert sum(counters.by_prefix("consensus.decided_round_").values()) >= 1


# ----------------------------------------------------------------------
# Lock-timestamp encoding (ts = rnd + 1): round-0 locks are visible
# ----------------------------------------------------------------------
def test_round0_lock_wins_max_ts_against_higher_pid_initial_estimate():
    # White-box: p01 adopts a round-0 fast-path proposal (lock ts = 1),
    # then becomes round-1 coordinator and reads a majority made of its
    # own locked estimate and p02's *initial* estimate.  With the legacy
    # ts = rnd encoding both would carry ts = 0 and the (ts, src)
    # tie-break would pick p02's unlocked value — exactly the window in
    # which a fast-path round-0 decision could already exist.
    world, pids, nodes, _ = consensus_world()
    world.start()
    p01 = nodes["p01"]
    p01.propose("k", "own-value", pids)
    p01._on_message("p00", ("PROPOSE", "k", 0, "locked-value"))
    assert p01._instances["k"].ts == 1
    # Round 0 dies; p01 advances and coordinates round 1.
    p01._on_message("p00", ("ABORT", "k", 0))
    world.run_for(20.0)  # deliver p01's self-addressed round-1 ESTIMATE
    p01._on_message("p02", ("ESTIMATE", "k", 1, "unlocked-value", 0))
    state = p01._instances["k"].coord_rounds[1]
    assert state.has_proposed
    assert state.proposed == "locked-value"


def test_classic_rounds_lock_with_the_same_encoding():
    # Round 1 is a classic round (coordinator p01 reads estimates first);
    # adopting its proposal locks with ts = rnd + 1 = 2, above any
    # round-0 lock.
    world, pids, nodes, _ = consensus_world()
    world.start()
    p02 = nodes["p02"]
    p02.propose("k", "own-value", pids)
    p02._on_message("p00", ("ABORT", "k", 0))
    assert p02._instances["k"].round == 1
    p02._on_message("p01", ("PROPOSE", "k", 1, "other"))
    assert p02._instances["k"].ts == 2


def test_classic_round_ignores_the_duplicate_propose_too():
    # n = 5, round 1 (classic): its coordinator p01 proposes on the third
    # ESTIMATE and answers the fourth and fifth with a catch-up PROPOSE,
    # a duplicate for a participant that already adopted.  A NACK for it
    # could reach the coordinator before the third ACK and abort a live
    # round; the duplicate is ignored instead.
    world, pids, nodes, _ = consensus_world(count=5)
    world.start()
    p04 = nodes["p04"]
    p04.propose("k", "own-value", pids)
    p04._on_message("p00", ("ABORT", "k", 0))
    p04._on_message("p01", ("PROPOSE", "k", 1, "value"))
    sent = world.metrics.counters.get("consensus.messages")
    p04._on_message("p01", ("PROPOSE", "k", 1, "value"))
    assert world.metrics.counters.get("consensus.messages") == sent  # no NACK
    assert p04._instances["k"].round == 1


# ----------------------------------------------------------------------
# Interleavings with collect()/abandon() and late estimates
# ----------------------------------------------------------------------
def test_late_estimate_gets_catch_up_propose_without_abort():
    world, pids, nodes, decisions = consensus_world()
    world.start()
    for pid in ("p00", "p01"):
        nodes[pid].propose("k", pid, pids)
    world.run_for(1.0)
    # p02 proposes inside the window where the coordinator has already
    # fast-path-proposed but no decision has reached p02: its round-0
    # ESTIMATE draws the catch-up PROPOSE reply — a same-round duplicate
    # of the PROPOSE p02 adopts directly — which must not NACK-abort the
    # live round.
    assert "k" not in decisions["p02"]
    nodes["p02"].propose("k", "p02", pids)
    assert run_until(world, lambda: everyone_decided(decisions, "k", pids))
    assert {decisions[p]["k"] for p in pids} == {"p00"}
    # Nobody ever advanced past round 0.
    assert world.metrics.counters.get("consensus.rounds") == len(pids)


def test_decide_then_collect_ignores_stragglers():
    world, pids, nodes, decisions = consensus_world()
    world.start()
    for pid in pids:
        nodes[pid].propose("k", pid, pids)
    assert run_until(world, lambda: everyone_decided(decisions, "k", pids))
    coord = nodes["p00"]
    coord.collect("k")
    assert coord.decision("k") is None
    assert "k" not in coord._instances
    # Late fast-path-era traffic for the collected instance is inert.
    coord._on_message("p02", ("ESTIMATE", "k", 0, "zombie", 0))
    coord._on_message("p02", ("ACK", "k", 0))
    world.run_for(100.0)
    assert coord.decision("k") is None
    assert "k" not in coord._instances


def test_abandon_mid_round0_voids_the_instance_everywhere():
    world, pids, nodes, decisions = consensus_world()
    world.start()
    nodes["p00"].propose("k", "doomed", pids)  # fast-path PROPOSE in flight
    for pid in pids:
        nodes[pid].abandon("k")
    world.run_for(500.0)
    # The in-flight PROPOSEs, ACKs and the would-be decision all hit
    # tombstones: nobody decides, nothing crashes, state stays empty.
    assert all("k" not in decisions[pid] for pid in pids)
    assert all("k" not in nodes[pid]._instances for pid in pids)
    assert world.metrics.counters.get("consensus.abandoned") == len(pids)


# ----------------------------------------------------------------------
# The stack the explorer builds runs the fast path
# ----------------------------------------------------------------------
def test_explored_stack_takes_the_fast_path_and_stays_clean():
    config = ScenarioConfig(seed=23, processes=3, duration=800.0, rate=25.0)
    result, world = run_scenario(config)
    assert result.violation is None
    assert result.converged
    assert world.metrics.counters.get("consensus.fast_path_proposals") > 0
