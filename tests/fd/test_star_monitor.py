"""Who watches whom: the small-timeout monitor of the new stack is a star.

Everybody times out the watcher — the view's first unsuspected member,
the one who orders — first-hand; the watcher times out everybody and
relays what it sees.  Idle n = 5 groups on 3–11 ms links throughout.
"""

import pytest

from repro.core.new_stack import HEARTBEAT_INTERVAL, StackConfig, build_new_group
from repro.fd.heartbeat import REPORT_PORT, watcher
from repro.net.topology import LinkModel
from repro.sim.world import World

TIMEOUT = StackConfig().suspicion_timeout
SLOWEST_LINK = 11.0


def idle_group(seed=1, count=5, config=None):
    world = World(seed=seed, default_link=LinkModel(3.0, 8.0))
    stacks = build_new_group(world, count, config=config or StackConfig())
    world.start()
    world.run_for(300.0)
    return world, stacks


def edges(world, since=0.0):
    return [
        (r.time, r.pid, r.event, r.details["peer"], r.details.get("via"))
        for r in world.trace.select(component="fd")
        if r.event in ("suspect", "trust") and r.time >= since
    ]


def test_watcher_is_the_first_unsuspected_member_in_view_order():
    assert watcher(["p02", "p00", "p01"]) == "p02"
    assert watcher(["p02", "p00", "p01"], {"p02"}) == "p00"
    assert watcher(["p00"], {"p00"}) is None


def test_steady_state_is_a_star():
    world, stacks = idle_group()
    for pid, stack in stacks.items():
        monitor = stack.suspicion_monitor
        assert monitor.watcher == "p00" and not monitor.suspects
        others = set(stacks) - {pid}
        assert monitor.first_hand == (others if pid == "p00" else {"p00"})
    # Eight fast links, twelve slow ones (a quarter of the exclusion timeout).
    slow = StackConfig().monitoring.exclusion_timeout / 4
    for pid, stack in stacks.items():
        for peer in set(stacks) - {pid}:
            expected = HEARTBEAT_INTERVAL if "p00" in (pid, peer) else slow
            assert stack.fd._interval(peer) == expected, (pid, peer)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_head_crash_is_detected_first_hand_and_the_takeover_suspects_nobody_alive(seed):
    world, stacks = idle_group(seed)
    world.run_for(7.0 * seed)
    world.crash("p00")
    crashed = world.now
    world.run_for(SLOWEST_LINK)  # whatever was in flight has landed
    survivors = {pid: s for pid, s in stacks.items() if pid != "p00"}
    last_heard = {pid: s.fd.last_heard("p00") for pid, s in survivors.items()}
    world.run_for(500.0)
    seen = edges(world, crashed)
    # Every survivor suspects the head itself, one timeout after its
    # last datagram (give or take a keep-alive and a link delay) ...
    assert sorted(pid for _t, pid, *_ in seen) == sorted(survivors)
    for at, pid, event, peer, via in seen:
        assert (event, peer, via) == ("suspect", "p00", None)
        assert TIMEOUT - 1e-6 <= at - last_heard[pid] <= TIMEOUT + HEARTBEAT_INTERVAL + SLOWEST_LINK
    # ... and while the survivors notice at different moments, nobody
    # alive is suspected by anybody: whoever is watched answers in kind.
    for pid, stack in survivors.items():
        monitor = stack.suspicion_monitor
        assert monitor.suspects == {"p00"} and monitor.watcher == "p01"
        assert monitor.first_hand == (set(stacks) - {"p01"} if pid == "p01" else {"p01"})


def test_one_way_cut_from_the_head_blinds_one_member_to_the_head_only():
    world, stacks = idle_group()
    answered = world.metrics.counters.get("fd.answered_in_kind")
    world.cut("p00", "p03", until=500.0)
    world.run_for(150.0)
    p03 = stacks["p03"].suspicion_monitor
    # p03 hears the head no more and turns to p01 — which does not know
    # it is being watched until p03's heartbeat says so, and answers.
    assert p03.suspects == {"p00"} and p03.first_hand == {"p01"}
    assert stacks["p01"].suspicion_monitor.watcher == "p00"
    assert stacks["p01"].fd._interval("p03") == HEARTBEAT_INTERVAL
    assert world.metrics.counters.get("fd.answered_in_kind") > answered
    # The head still hears p03 (the cut is one-way, and p03 keeps the link
    # to a suspect ahead of its watcher warm): nobody else is disturbed.
    world.run_for(50.0)
    assert world.now == 500.0
    assert [(pid, event, peer) for _t, pid, event, peer, _via in edges(world, 300.0)] == [
        ("p03", "suspect", "p00")
    ]
    assert world.metrics.counters.get("net.dropped.partition") > 0
    world.run_for(HEARTBEAT_INTERVAL + SLOWEST_LINK)
    assert all(not s.suspicion_monitor.suspects for s in stacks.values())
    assert p03.first_hand == {"p00"}
    # p01 stops answering one small timeout after the last question.
    world.run_for(TIMEOUT + HEARTBEAT_INTERVAL + SLOWEST_LINK)
    assert stacks["p01"].fd._interval("p03") > HEARTBEAT_INTERVAL


def test_without_the_answer_in_kind_the_blinded_member_suspects_whom_it_turns_to(monkeypatch):
    # What R4 is for: p01 does not answer, and p03 times it out 60 ms
    # after turning to it (then p02, ... unless a slow keep-alive lands).
    from repro.fd.heartbeat import HeartbeatFailureDetector

    monkeypatch.setattr(
        HeartbeatFailureDetector, "_on_heartbeat", lambda self, src, asks: None
    )
    world, stacks = idle_group()
    world.cut("p00", "p03", until=500.0)
    world.run_for(199.0)
    assert (
        "p03", "suspect", "p01"
    ) in [(pid, event, peer) for _t, pid, event, peer, _via in edges(world, 300.0)]


def test_a_reported_victim_stays_suspected_across_the_head_crash():
    world, stacks = idle_group()
    world.crash("p03")
    crashed = world.now
    world.run_for(150.0)
    survivors = {pid: s for pid, s in stacks.items() if pid not in ("p00", "p03")}
    # The head timed it out and told the others.
    assert sorted((pid, via) for _t, pid, _e, _p, via in edges(world, crashed)) == [
        ("p00", None), *[(pid, "p00") for pid in sorted(survivors)]
    ]
    world.crash("p00")
    lost = []
    for _ in range(300):
        world.run_for(1.0)
        lost += [pid for pid, s in survivors.items() if "p03" not in s.suspicion_monitor.suspects]
    assert not lost
    assert all(s.suspicion_monitor.suspects == {"p00", "p03"} for s in survivors.values())
    assert not [e for e in edges(world, crashed) if e[2] == "trust"]


def test_stale_and_foreign_reports_are_dropped_and_counted():
    world, stacks = idle_group()
    counters = world.metrics.counters
    p02 = stacks["p02"]
    monitor = p02.suspicion_monitor
    # A report from somebody p02 does not regard as watcher is ignored.
    stacks["p01"].channel.send("p02", REPORT_PORT, (("p04", 0),))
    world.run_for(20.0)
    assert counters.get("fd.reports_ignored") == 1 and not monitor.suspects
    # The watcher's is adopted, and says who said so.
    adopted = counters.get("fd.reports_adopted")
    stacks["p00"].channel.send("p02", REPORT_PORT, (("p04", 0),))
    world.run_for(20.0)
    assert counters.get("fd.reports_adopted") == adopted + 1
    assert edges(world, 300.0)[-1][1:] == ("p02", "suspect", "p04", "p00")
    # ... until p02 hears the suspect itself: evidence ends a suspicion.
    world.run_for(600.0)
    assert not monitor.suspects and edges(world, 300.0)[-1][1:] == ("p02", "trust", "p04", None)
    # A verdict on p03~0 that arrives after p03~1 was heard is void
    # (the mirror of ``monitoring.stale_votes_dropped``).
    p02.fd._on_traffic("p03", 1, "rc")
    stacks["p00"].channel.send("p02", REPORT_PORT, (("p03", 0), ("p04", 0)))
    world.run_for(20.0)
    assert counters.get("fd.stale_reports_dropped") == 1
    assert monitor.suspects == {"p04"}


def test_a_report_that_arrives_ahead_of_the_turn_to_its_sender_is_adopted_on_turning():
    # The takeover skew: p01 stopped hearing p00 first and said what it
    # sees; p02 still regards p00 as watcher when that arrives.  Nobody
    # would repeat it, so p02 keeps it and adopts it on turning to p01.
    # (p00 is only cut off from p02 here, so that no report but the
    # injected one is on its way.)
    world, stacks = idle_group()
    counters = world.metrics.counters
    monitor = stacks["p02"].suspicion_monitor
    world.cut("p00", "p02", until=1_000.0)
    world.run_for(TIMEOUT / 2)
    stacks["p01"].channel.send("p02", REPORT_PORT, (("p00", 0), ("p04", 0)))
    world.run_for(SLOWEST_LINK + 2.0)
    assert counters.get("fd.reports_ignored") == 1
    assert not monitor.suspects and monitor.watcher == "p00"
    world.run_until(lambda: "p00" in monitor.suspects, timeout=TIMEOUT, step=1.0)
    assert monitor.suspects == {"p00", "p04"} and monitor.watcher == "p01"
    assert counters.get("fd.reports_adopted") == 1
    assert [e[1:] for e in edges(world, 300.0)] == [
        ("p02", "suspect", "p00", None), ("p02", "suspect", "p04", "p01")
    ]


def test_an_early_report_is_kept_for_one_timeout_and_only_if_it_explains_its_sender():
    world, stacks = idle_group()
    monitor = stacks["p02"].suspicion_monitor
    # p01 ends a turn of its own: the report names nobody ahead of it.
    stacks["p01"].channel.send("p02", REPORT_PORT, (("p04", 0),))
    world.run_for(SLOWEST_LINK + 2.0)
    assert monitor._early is None
    # One that does is void a timeout later: p02 turning to p01 after
    # that finds its own, fresher, view and waits for p01's next edge.
    stacks["p01"].channel.send("p02", REPORT_PORT, (("p00", 0), ("p04", 0)))
    world.run_for(TIMEOUT + SLOWEST_LINK)
    world.crash("p00")
    world.run_for(TIMEOUT + HEARTBEAT_INTERVAL + SLOWEST_LINK)
    assert monitor.watcher == "p01" and monitor._early is None
    assert [e[3:] for e in edges(world, 300.0) if e[1] == "p02"] == [("p00", None)]


@pytest.mark.parametrize("phase", [0.0, 30.0, 60.0, 90.0])
def test_a_slow_link_does_not_shorten_the_exclusion_timeout(phase):
    # The links between two non-heads are kept warm every 400 / 4 ms, so
    # what p01, p02 and p04 last heard of p03 may be 100 ms old when it
    # crashes.  Each still waits the whole exclusion timeout *of the
    # crash* before its vote, as on the mesh; the head, which hears p03
    # every 15 ms, votes first and is what excludes.
    from repro.monitoring.component import MonitoringPolicy

    config = StackConfig(monitoring=MonitoringPolicy(exclusion_timeout=400.0, votes_required=4))
    world, stacks = idle_group(config=config)
    world.run_for(phase)
    world.crash("p03")
    crashed = world.now
    world.run_for(700.0)
    voted = {
        r.pid: r.time - crashed
        for r in world.trace.select(component="monitoring")
        if r.event == "fd_suspicion" and r.details["suspect"] == "p03"
    }
    assert sorted(voted) == ["p00", "p01", "p02", "p04"]
    assert 400.0 - HEARTBEAT_INTERVAL - SLOWEST_LINK <= voted["p00"] <= 400.0 + SLOWEST_LINK
    for pid in ("p01", "p02", "p04"):
        assert 400.0 <= voted[pid] <= 400.0 + 100.0 + SLOWEST_LINK, (pid, voted)


def test_a_crash_reported_while_a_member_is_blind_to_the_head_reaches_it_after_the_mend():
    # p02 stops hearing p00 and turns to p01; p04 crashes meanwhile and
    # p00 reports it.  The report is a datagram from p00 like any other:
    # cut with the rest, retransmitted after the mend, and the tap reads
    # it as evidence *before* the monitor reads it as a verdict — p02 is
    # back with p00 by the time it asks whose report this is.
    world, stacks = idle_group()
    monitor = stacks["p02"].suspicion_monitor
    world.cut("p00", "p02", until=world.now + 150.0)
    world.run_for(80.0)
    assert monitor.suspects == {"p00"} and monitor.watcher == "p01"
    world.crash("p04")
    world.run_for(70.0 + 100.0)
    assert monitor.suspects == {"p04"} and monitor.watcher == "p00"
    assert world.metrics.counters.get("fd.reports_ignored") == 0
    assert [e[2:] for e in edges(world, 300.0) if e[1] == "p02"] == [
        ("suspect", "p00", None), ("trust", "p00", None), ("suspect", "p04", "p00"),
    ]


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP 14(b): a member that becomes watcher counts the exclusion timeout "
    "from up to one slow keep-alive interval before the crash",
)
@pytest.mark.parametrize("head_after", [100.0, 300.0])
def test_a_new_watcher_waits_the_whole_exclusion_timeout_of_a_crash(head_after):
    # p03 crashes, then the head p00.  p01, the watcher now, kept p03's
    # link warm every 500 ms until then (exclusion timeout / 4); it must
    # still give p03 the whole exclusion timeout from the crash before
    # it votes, as it does when the head crashes later (2 256-2 259 ms).
    # Today it votes 1 771-1 775 ms after the crash on seeds 1-5:
    # ``staleness`` follows the cadence of now, not of when p03 was last
    # heard.
    world, _stacks = idle_group()
    world.crash("p03", at=3_000.0)
    world.crash("p00", at=3_000.0 + head_after)
    world.run_for(6_000.0)
    voted = [
        r.time - 3_000.0
        for r in world.trace.select(pid="p01", component="monitoring")
        if r.event == "fd_suspicion" and r.details["suspect"] == "p03"
    ]
    exclusion_timeout = StackConfig().monitoring.exclusion_timeout
    assert voted and voted[0] >= exclusion_timeout
