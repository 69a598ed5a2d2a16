"""Fig. 9 — the full architecture: every component, every interface.

Runs one lifecycle scenario (mixed traffic, voluntary leave, crash,
monitored exclusion, join with state transfer) and reports the traffic
seen on every interface named in Fig. 9, demonstrating that all the
components exist and interact as drawn.
"""

from common import Group, Result

from repro.core.api import GroupCommunication
from repro.core.new_stack import StackConfig
from repro.monitoring.component import MonitoringPolicy
from repro.sim.world import add_joiner


def scenario_fig9_full_stack() -> Result:
    r = Result()
    config = StackConfig(
        suspicion_timeout=50.0,
        monitoring=MonitoringPolicy(exclusion_timeout=500.0, votes_required=2),
    )
    g = Group("new", 4, seed=42, config=config)
    world, stacks = g.world, g.stacks
    apis = {pid: GroupCommunication(s) for pid, s in stacks.items()}

    for i in range(5):
        apis["p00"].abcast(("a", i))
        apis["p01"].rbcast(("r", i))
    g.drain(10)
    apis["p03"].leave()
    assert world.run_until(
        lambda: apis["p00"].view.members == ("p00", "p01", "p02"), timeout=60_000
    )
    world.crash("p02")
    assert world.run_until(
        lambda: apis["p00"].view.members == ("p00", "p01"), timeout=60_000
    )
    joiner = add_joiner(world, stacks, config=config)
    joiner.membership.request_join("p00")
    assert world.run_until(
        lambda: joiner.membership.view is not None, timeout=60_000
    )
    world.run_for(500.0)

    c = world.metrics.counters
    interfaces = [
        ["u-send / u-receive (unreliable transport)", c.get("net.sent")],
        ["send / receive (reliable channel)", c.get("rc.sent")],
        ["suspect + start_stop_monitor (failure detection)", c.get("monitoring.fd_suspicions")],
        ["propose / decide (consensus)", c.get("consensus.decided")],
        ["abcast / adeliver (atomic broadcast)", c.get("abcast.delivered")],
        ["rbcast+abcast / gdeliver (generic broadcast)", c.get("gbcast.delivered")],
        ["join (membership)", c.get("gm.join_requests")],
        ["remove (membership)", c.get("gm.remove_requests")],
        ["new_view / init_view (membership up-calls)", c.get("gm.views_installed")],
        ["state transfer to joiner", c.get("gm.state_transfers")],
        ["run / join_remove_list (monitoring exclusions)", c.get("monitoring.exclusions_requested")],
    ]
    r.table(
        "Fig. 9  Full architecture: interface coverage over one lifecycle run",
        ["Fig. 9 interface", "events observed"],
        interfaces,
        note=(
            "Shape: every interface of the full architecture carries traffic in "
            "a single run mixing ordered/unordered broadcast, a voluntary "
            "leave, a crash with monitored exclusion, and a join with state "
            "transfer."
        ),
    )
    r.check("every_interface_carries_traffic", "events observed",
            dict(interfaces), ">", 0)
    return r
