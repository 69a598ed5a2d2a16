"""False suspicions on lossy links: what the keep-alive deadline may cost.

``HEARTBEAT_INTERVAL`` is the suspicion timeout ÷ 4, so that *two*
consecutive losses on an idle link plus the link's delay still fit inside
the timeout.  Three in a row do not: the fourth heartbeat lands on the
timeout give or take the jitter, and about every other such triple is a
(short-lived) false suspicion.  The fault-free lossy scenarios the
explorer draws for seeds 0:200 — 2 % and 5 % loss, n = 3..5, 1.2–2 s of
traffic — are the yardstick: a 20 ms deadline, which leaves no room for
the second loss, read 35 suspicions there; the 10 ms tick read 1.

That is a statement about a link somebody times out *first-hand*.  Since
the small-timeout monitor became a star (``repro.fd.heartbeat``) only
the links to and from the watcher are; a false suspicion of the watcher's
is then relayed to the others (``via=`` in the record), which says
nothing about *their* links to the suspect: those are counted next to
the first-hand ones, and bounded by them.
"""

from collections import defaultdict

from repro.explore.explorer import scenario_for_seed
from repro.explore.runner import run_scenario
from repro.net.transport import UnreliableTransport


def false_suspicions(monkeypatch, seeds):
    """Run the fault-free lossy explore scenarios of ``seeds``; check that
    every first-hand false suspicion follows at least three consecutive
    losses.  Returns (scenarios, first-hand suspicions, relayed ones)."""
    sent = defaultdict(list)  # (world, src, dst) -> [(time, lost)]
    send = UnreliableTransport.send

    def spy(self, route, port, payload, *args):
        before = self._counters.get("net.dropped.loss")
        send(self, route, port, payload, *args)
        lost = self._counters.get("net.dropped.loss") > before
        sent[self.world, route.src, route.dst].append((self.world.now, lost))

    monkeypatch.setattr(UnreliableTransport, "send", spy)
    scenarios = suspicions = relayed = 0
    for seed in seeds:
        config = scenario_for_seed(seed)
        if config.link.drop_prob == 0.0:
            continue
        scenarios += 1
        result, world = run_scenario(config, trace=True)
        assert result.ok and result.converged, seed
        # The spy sees the scenario's datagrams, losses included: a spy
        # on a path nothing takes would leave every window below empty.
        assert sent and any(lost for log in sent.values() for _, lost in log), seed
        # Nobody ends the run blind: a member that lost sight of the
        # watcher and was not answered would suspect everyone by now.
        for pid in world.pids():
            fd = next(c for c in world.process(pid).components() if c.name == "fd")
            assert all(2 * len(m.suspects) < config.processes for m in fd._monitors), (seed, pid)
        timeout = config.stack.stack_config().suspicion_timeout
        slowest = config.link.delay_min + config.link.delay_jitter
        for record in world.trace.select(component="fd", event="suspect"):
            if record.details["timeout"] != timeout:
                continue
            if "via" in record.details:
                relayed += 1
                continue
            suspicions += 1
            # Whatever the suspect sent the suspecter early enough to
            # arrive inside the silent window must have been lost — and
            # two losses must never be enough.
            in_window = [
                lost
                for at, lost in sent[world, record.details["peer"], record.pid]
                if record.time - timeout <= at <= record.time - slowest
            ]
            assert all(in_window) and len(in_window) >= 3, (seed, record, in_window)
        sent.clear()
    return scenarios, suspicions, relayed


def test_only_three_consecutive_losses_raise_a_false_suspicion(monkeypatch):
    scenarios, suspicions, relayed = false_suspicions(monkeypatch, range(200))
    assert scenarios == 95
    # A Poisson count with a mean near 4 (3-5 across variants of the
    # keep-alive rule that differ only in sample path; 4-5 per 206 over
    # seeds 200:600): the bound separates it from the 35 of a deadline
    # that is too long, not from its own scatter.
    assert suspicions <= 8
    # Each false suspicion of a watcher's reaches the n - 2 others
    # (2 first-hand and 0 relayed when this was written).
    assert relayed <= suspicions * 3, (suspicions, relayed)


def test_false_suspicions_that_do_occur_follow_three_losses(monkeypatch):
    # Seeds 0:200 may read no first-hand false suspicion at all (their
    # sample path read 0 since the star monitor), which leaves the window
    # check above nothing to check; seeds 200:600 read 4 (and 4 relayed).
    scenarios, suspicions, relayed = false_suspicions(monkeypatch, range(200, 600))
    assert scenarios == 206
    assert 1 <= suspicions <= 10, suspicions
    assert relayed <= suspicions * 3, (suspicions, relayed)
