"""repro — a reproduction of *A Step Towards a New Generation of Group
Communication Systems* (Mena, Schiper, Wojciechowski, Middleware 2003).

The package implements the paper's new **AB-GB architecture** — atomic
broadcast as the basic component, generic broadcast instead of view
synchrony, group membership on top, monitoring decoupled from failure
detection — together with faithful re-implementations of the traditional
architectures it compares against (Isis, Phoenix, RMP, Totem, Ensemble)
and the replication techniques of Section 3.2.2 (active replication,
passive replication over generic broadcast).

Quickstart::

    from repro import World, build_new_group, GroupCommunication

    world = World(seed=7)
    stacks = build_new_group(world, 3)
    apis = {pid: GroupCommunication(stack) for pid, stack in stacks.items()}
    apis["p00"].abcast("hello, group")
    world.run_for(500.0)
    assert all(api.delivered_payloads() == ["hello, group"] for api in apis.values())
"""

from repro.checkers import CheckResult, app_history, check_all
from repro.core.api import GroupCommunication
from repro.core.new_stack import (
    NewArchitectureStack,
    StackConfig,
    build_new_group,
    enable_recovery,
)
from repro.gbcast.conflict import (
    PASSIVE_REPLICATION,
    RBCAST_ABCAST,
    ConflictRelation,
    bank_relation,
)
from repro.membership.view import View
from repro.monitoring.component import MonitoringPolicy
from repro.net.message import AppMessage, MsgId
from repro.sim.world import World, add_joiner, build_group, make_pid

__version__ = "1.0.0"

__all__ = [
    "AppMessage",
    "CheckResult",
    "ConflictRelation",
    "GroupCommunication",
    "MonitoringPolicy",
    "MsgId",
    "NewArchitectureStack",
    "PASSIVE_REPLICATION",
    "RBCAST_ABCAST",
    "StackConfig",
    "View",
    "World",
    "add_joiner",
    "app_history",
    "bank_relation",
    "build_group",
    "build_new_group",
    "check_all",
    "enable_recovery",
    "make_pid",
    "__version__",
]
