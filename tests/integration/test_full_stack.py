"""Integration: one long scenario across the full Fig. 9 stack.

Exercises every interface of the paper's full architecture (Fig. 9):
u-send/u-receive (transport), send/receive (reliable channel),
suspect/start_stop_monitor (FD), propose/decide (consensus),
abcast/adeliver, rbcast/rdeliver (generic broadcast conflict classes),
join/remove/new_view (membership), run/join_remove_list (monitoring).
"""

from repro.core.new_stack import StackConfig, build_new_group
from repro.monitoring.component import MonitoringPolicy
from repro.net.topology import LinkModel
from repro.sim.world import World, add_joiner

from tests.conftest import new_group, run_until


def test_lifecycle_scenario():
    config = StackConfig(
        suspicion_timeout=50.0,
        monitoring=MonitoringPolicy(exclusion_timeout=600.0, votes_required=2),
    )
    world, stacks, apis = new_group(count=4, seed=11, config=config)

    # Phase 1: mixed traffic, failure-free.
    for i in range(5):
        apis["p00"].abcast(("a", i))
        apis["p01"].rbcast(("r", i))
    assert run_until(
        world, lambda: all(len(a.delivered) == 10 for a in apis.values()), timeout=30_000
    )
    abcast_orders = [
        [m.payload for m in a.delivered if m.msg_class == "abcast"] for a in apis.values()
    ]
    assert all(o == abcast_orders[0] for o in abcast_orders)

    # Phase 2: a member leaves voluntarily.
    apis["p03"].leave()
    assert run_until(
        world, lambda: apis["p00"].view.members == ("p00", "p01", "p02"), timeout=20_000
    )

    # Phase 3: a member crashes; traffic continues before exclusion.
    world.crash("p02")
    marker = world.now
    apis["p00"].abcast(("post-crash", 0))
    assert run_until(
        world,
        lambda: any(m.payload == ("post-crash", 0) for m in apis["p01"].delivered),
        timeout=30_000,
    )
    # Monitoring then excludes the crashed member (large timeout).
    assert run_until(
        world, lambda: apis["p00"].view.members == ("p00", "p01"), timeout=30_000
    )
    assert world.now - marker >= 0  # sanity: exclusion after delivery

    # Phase 4: a fresh process joins with state transfer.
    joiner = add_joiner(world, stacks, config=config)
    joiner_api_members = lambda: joiner.membership.view.members if joiner.membership.view else ()
    joiner.membership.request_join("p00")
    assert run_until(
        world, lambda: joiner_api_members() == ("p00", "p01", "p04"), timeout=30_000
    )

    # Phase 5: the joiner broadcasts; survivors deliver.
    joiner.gbcast.gbcast_payload(("from-new", 1), "abcast")
    assert run_until(
        world,
        lambda: any(m.payload == ("from-new", 1) for m in apis["p00"].delivered),
        timeout=30_000,
    )

    # Every view history is identical at the surviving original members.
    h0 = [str(v) for v in stacks["p00"].membership.view_history]
    h1 = [str(v) for v in stacks["p01"].membership.view_history]
    assert h0 == h1
    # All Fig. 9 interfaces saw traffic.
    counters = world.metrics.counters
    assert counters.get("net.sent") > 0                     # u-send
    assert counters.get("rc.sent") > 0                      # send
    assert counters.get("consensus.decided") > 0            # propose/decide
    assert counters.get("gbcast.delivered") > 0             # gdeliver
    assert counters.get("gm.views_installed") > 0           # new_view
    assert counters.get("monitoring.exclusions_requested") >= 1  # monitoring run


def test_partition_heal_consistency():
    config = StackConfig(monitoring=MonitoringPolicy(exclusion_timeout=100_000.0))
    world, stacks, apis = new_group(count=3, seed=12, config=config)
    world.run_for(100.0)
    world.split([["p00", "p01"], ["p02"]])
    # Majority side keeps working.
    apis["p00"].abcast("during-partition")
    assert run_until(
        world,
        lambda: any(m.payload == "during-partition" for m in apis["p01"].delivered),
        timeout=30_000,
    )
    # Minority is stuck (no majority => no consensus decision reaches it).
    assert not any(m.payload == "during-partition" for m in apis["p02"].delivered)
    world.heal()
    # After healing, the minority catches up — same total order everywhere.
    assert run_until(
        world,
        lambda: any(m.payload == "during-partition" for m in apis["p02"].delivered),
        timeout=30_000,
    )
    orders = [
        [m.payload for m in a.delivered if m.msg_class == "abcast"] for a in apis.values()
    ]
    assert all(o == orders[0] for o in orders)


def test_high_load_mixed_classes_consistency():
    world, stacks, apis = new_group(count=3, seed=13)
    for i in range(25):
        apis["p00"].abcast(("a", i))
        apis["p01"].rbcast(("r", i))
        apis["p02"].abcast(("c", i))
    assert run_until(
        world, lambda: all(len(a.delivered) == 75 for a in apis.values()), timeout=120_000
    )
    orders = [
        [m.payload for m in a.delivered if m.msg_class == "abcast"] for a in apis.values()
    ]
    assert all(o == orders[0] for o in orders)
    for a in apis.values():
        payloads = a.delivered_payloads()
        assert len(payloads) == len(set(payloads)) == 75


def test_idle_group_runs_on_deadlines_not_ticks():
    # Nobody broadcasts: what is left is the control plane.  The 8
    # directed links to and from the watcher carry one keep-alive per
    # 15 ms (533 a second), the 12 between the others one per 500 ms —
    # the exclusion monitor is their only reader — plus a little
    # stability gossip; each process wakes once per keep-alive deadline
    # and once per suspicion-monitor expiry.  The n(n-1) mesh at 15 ms
    # read 2 221 events / 1 357 datagrams here, a 10 ms heartbeat tick
    # plus a 10 ms consensus tick 3 068 / 2 013.
    world = World(seed=1, default_link=LinkModel(3.0, 8.0))
    stacks = build_new_group(world, 5, config=StackConfig())
    world.start()
    world.run_for(200.0)
    consensus_timers = []
    for stack in stacks.values():
        stack.consensus.schedule = lambda *args: consensus_timers.append(args)
    events = world.scheduler.events_processed
    datagrams = world.metrics.counters.get("net.sent")
    world.run_for(1_000.0)
    assert world.scheduler.events_processed - events <= 1_400
    assert world.metrics.counters.get("net.sent") - datagrams <= 650
    assert consensus_timers == []
    assert all(not stack.suspicion_monitor.suspects for stack in stacks.values())
    # Nor with a member suspected (and, for two seconds, not excluded):
    # consensus moves on the suspicion edge and where an instance arrives
    # at a suspect's round; it re-scanned every 10 ms while anybody was.
    world.crash("p04")
    world.run_for(500.0)
    survivors = [stack for pid, stack in stacks.items() if pid != "p04"]
    assert all(stack.suspicion_monitor.suspects == {"p04"} for stack in survivors)
    assert consensus_timers == []
    # The watcher timed p04 out; the other three have it from its report.
    told = {
        record.pid: record.details.get("via")
        for record in world.trace.select(component="fd", event="suspect")
    }
    assert told == {"p00": None, "p01": "p00", "p02": "p00", "p03": "p00"}
