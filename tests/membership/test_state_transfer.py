"""State transfer: one path, installed top-down, add-only, never backwards.

``AbcastGroupMembership._on_state`` puts the view in place, installs the
registered sections last-registered-first and lets atomic broadcast
resume last; every section merges, none overwrites; a snapshot that is
not newer than what the receiver installed itself is refused whole.
"""

from __future__ import annotations

from repro.core.api import GroupCommunication
from repro.core.new_stack import StackConfig, build_new_group
from repro.monitoring.component import MonitoringPolicy
from repro.net.topology import LinkModel
from repro.sim.world import World, add_joiner

from tests.conftest import new_group, run_until

WALL = LinkModel(1.0, 1.0, drop_prob=1.0)
OPEN = LinkModel(1.0, 1.0)


def test_gbcast_install_never_takes_a_delivery_back():
    # A member holds delivered id x; the snapshot it installs (a sponsor
    # that was behind) does not, and hands x over as pending.  Assigned,
    # the delivered set forgot x and x was acked and delivered again.
    world, stacks, apis = new_group(seed=3)
    mid = apis["p00"].abcast("x")
    assert run_until(world, lambda: all(len(a.delivered) == 1 for a in apis.values()))
    gbcast = stacks["p02"].gbcast
    message = gbcast.delivered_log[0][0]
    gbcast.install_snapshot({"stage": gbcast.stage, "delivered": set(), "pending": {mid: message}})
    assert mid in gbcast._delivered and gbcast.undelivered_count() == 0
    world.run_for(1_000.0)
    assert [m.id for m, _path in gbcast.delivered_log].count(mid) == 1
    assert [m.payload for m in apis["p02"].delivered] == ["x"]


def test_abcast_install_never_takes_a_delivery_back():
    world, stacks, _ = new_group(seed=3)
    message = stacks["p00"].process.msg_ids.message("x")
    stacks["p00"].abcast.abcast(message)
    assert run_until(world, lambda: all(len(s.abcast.delivered_log) == 1 for s in stacks.values()))
    abcast = stacks["p02"].abcast
    abcast.install_snapshot(
        {
            "epoch": abcast.epoch,
            "next_instance": abcast.next_instance,
            "delivered": set(),
            "pending": {message.id: message},
        }
    )
    assert message.id in abcast.delivered_ids() and abcast.in_flight() == 0
    world.run_for(1_000.0)
    for stack in stacks.values():
        assert [m.id for m in stack.abcast.delivered_log].count(message.id) == 1


class Outbox:
    """Stands in for a membership's channel: keeps what it would send."""

    def __init__(self):
        self.sent = []

    def send(self, dst, port, payload):
        self.sent.append((dst, port, payload))


def test_snapshot_not_newer_than_own_view_is_refused_whole():
    # p02 is excluded and installs view 1 — its own removal — itself.
    # A sponsor still in view 0 (it finds p02 in its view and answers a
    # join request directly) must not take it back there.
    world, stacks, apis = new_group(seed=4)
    sponsor = stacks["p00"].membership
    channel, sponsor.channel = sponsor.channel, Outbox()
    sponsor._send_state("p02")
    ((_, _, stale),) = sponsor.channel.sent
    sponsor.channel = channel
    assert stale["view"].id == 0
    apis["p00"].abcast("a")
    apis["p01"].abcast("b")
    assert run_until(world, lambda: all(len(a.delivered) == 2 for a in apis.values()))
    stacks["p00"].membership.remove("p02")
    victim = stacks["p02"]
    assert run_until(world, lambda: "p02" not in victim.membership.current_members())

    def position():
        return (
            victim.membership.view,
            list(victim.membership.view_history),
            victim.gbcast.stage,
            victim.abcast.epoch,
            victim.abcast.next_instance,
            victim.abcast.delivered_ids(),
        )

    refused = lambda: world.metrics.counters.get("gm.stale_snapshots_refused")
    before = position()
    assert before[0].id == 1 and before[2] >= 1 and before[3] == 1
    assert refused() == 0
    victim.membership._on_state("p00", stale)
    assert position() == before
    assert refused() == 1
    # The same snapshot carrying the view it was excluded in: still refused.
    victim.membership._on_state("p00", {**stale, "view": before[0]})
    assert position() == before
    assert refused() == 2


def test_decision_retained_during_transfer_is_applied_inside_the_install():
    # The case that fixes the install order.  The joiner's snapshot is
    # held up on the sponsor's link while the group closes another stage;
    # the ENDSTAGE's decision and the bodies reach the joiner by relay
    # and are retained.  Installing, atomic broadcast applies the kept
    # decision from inside its own section — so the application's state
    # and generic broadcast's stage must be in already, and the view
    # told: the messages land in stage 1 (not the fresh stack's 0, where
    # the ENDSTAGE would be void) and on top of the transferred state.
    config = StackConfig(
        relay_policy="eager", monitoring=MonitoringPolicy(exclusion_timeout=60_000.0)
    )
    world = World(seed=3, default_link=OPEN)
    stacks = build_new_group(world, 3, config=config)
    apis = {pid: GroupCommunication(stack) for pid, stack in stacks.items()}
    state = {pid: [] for pid in stacks}
    for pid, stack in stacks.items():
        apis[pid].on_gdeliver(lambda m, pid=pid: state[pid].append(m.payload))
        stack.membership.set_state_handlers(lambda pid=pid: list(state[pid]), lambda s: None)
    world.start()
    apis["p01"].abcast("a1")
    apis["p02"].abcast("a2")
    assert run_until(world, lambda: all(len(s) == 2 for s in state.values()))
    assert {stack.gbcast.stage for stack in stacks.values()} == {1}

    joiner = add_joiner(world, stacks, config=config)
    api = GroupCommunication(joiner)
    events, mine = [], []

    def install(transferred):
        events.append(("app", world.now))
        mine[:] = transferred

    def deliver(message):
        events.append(("deliver", world.now, joiner.gbcast.stage))
        mine.append(message.payload)

    joiner.membership.set_state_handlers(lambda: list(mine), install)
    joiner.membership.on_new_view(lambda view: events.append(("view", world.now)))
    api.on_gdeliver(deliver)
    world.transport.set_link("p00", "p03", WALL)  # the sponsor's link
    joiner.membership.request_join("p01")
    members = ("p00", "p01", "p02")
    assert run_until(world, lambda: all("p03" in stacks[p].membership.view for p in members))
    apis["p01"].abcast("b1")
    apis["p02"].abcast("b2")
    assert run_until(world, lambda: all(len(state[p]) == 4 for p in members))
    assert run_until(world, lambda: bool(joiner.abcast._decided_batches))
    assert joiner.membership.view is None and events == []

    world.transport.set_link("p00", "p03", OPEN)
    assert run_until(world, lambda: joiner.membership.view is not None)
    at = events[0][1]
    assert events == [("app", at), ("view", at), ("deliver", at, 1), ("deliver", at, 1)]
    # b1 and b2 are concurrent: the sponsor's order is the one to match.
    assert mine == state["p00"]
    assert mine[:2] == ["a1", "a2"] and sorted(mine[2:]) == ["b1", "b2"]
    assert joiner.gbcast.stage == 2
    assert world.metrics.counters.get("gm.state_transfers") == 1
