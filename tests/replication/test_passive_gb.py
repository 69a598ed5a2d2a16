"""Tests for passive replication over generic broadcast (Fig. 8)."""

from repro.core.new_stack import StackConfig, build_new_group
from repro.gbcast.conflict import PASSIVE_REPLICATION, PRIMARY_CHANGE, UPDATE
from repro.monitoring.component import MonitoringPolicy
from repro.net.topology import LinkModel
from repro.replication.client import spawn_client
from repro.replication.primary_backup import PassiveReplicaGB, attach_passive_replicas
from repro.sim.world import World, add_joiner

from tests.conftest import new_group, run_until


def apply_kv(state, command):
    """Pure apply function: state is an immutable dict."""
    key, value = command
    new_state = dict(state)
    new_state[key] = value
    return new_state, ("stored", key, value)


def passive_setup(count=3, seed=1, config=None):
    world, stacks, _ = new_group(
        count=count, seed=seed, conflict=PASSIVE_REPLICATION, config=config
    )
    replicas = attach_passive_replicas(stacks, apply_kv, {})
    client = spawn_client(world, sorted(stacks), mode="primary", retry_timeout=400.0)
    world.start()
    return world, stacks, replicas, client


def test_primary_processes_and_backups_apply():
    world, stacks, replicas, client = passive_setup()
    results = []
    client.submit(("x", 1), callback=results.append)
    assert run_until(world, lambda: bool(results), timeout=20_000)
    assert results[0][0] == "stored"
    assert run_until(
        world,
        lambda: all(r.state.get("x") == 1 for r in replicas.values()),
        timeout=20_000,
    )
    # Only the primary executed the request; backups just applied state.
    assert world.metrics.counters.get("passive.updates_sent") == 1


def test_updates_use_fast_path_no_consensus():
    # Updates do not conflict with each other: failure-free passive
    # replication should never invoke consensus (Section 4.2 economics).
    world, stacks, replicas, client = passive_setup(seed=2)
    done = []
    for i in range(5):
        client.submit(("k", i), callback=done.append)
    assert run_until(world, lambda: len(done) == 5, timeout=30_000)
    assert world.metrics.counters.get("consensus.proposals") == 0


def test_fifo_updates_apply_in_primary_order():
    world, stacks, replicas, client = passive_setup(seed=3)
    done = []
    for i in range(8):
        client.submit(("seq", i), callback=done.append)
    assert run_until(world, lambda: len(done) == 8, timeout=40_000)
    assert run_until(
        world,
        lambda: all(r.state.get("seq") == 7 for r in replicas.values()),
        timeout=20_000,
    )


def test_primary_crash_rotation_without_exclusion():
    # The Fig. 8 mechanism: backups suspect the primary (the stack's
    # small-timeout monitor), g-broadcast primary-change, the view head
    # rotates — but the old primary is NOT excluded from the membership.
    config = StackConfig(monitoring=MonitoringPolicy(exclusion_timeout=60_000.0))
    world, stacks, replicas, client = passive_setup(seed=4, config=config)
    world.run_for(100.0)
    world.crash("p00")
    results = []
    client.submit(("after", 42), callback=results.append)
    assert run_until(world, lambda: bool(results), timeout=30_000)
    survivors = [r for pid, r in replicas.items() if pid != "p00"]
    assert all(r.server_list[0] == "p01" for r in survivors)
    assert all(r.epoch >= 1 for r in survivors)
    # Membership untouched: suspicion did not become exclusion.
    assert stacks["p01"].membership.view.id == 0
    assert "p00" in stacks["p01"].membership.view


def test_false_suspicion_costs_only_a_rotation():
    # Section 4.3: with suspicion decoupled from exclusion, a wrong
    # suspicion costs one rotated view, not a kill + state transfer.
    config = StackConfig(monitoring=MonitoringPolicy(exclusion_timeout=60_000.0))
    world, stacks, replicas, client = passive_setup(seed=5, config=config)
    world.run_for(100.0)
    from repro.net.topology import LinkModel

    # The primary goes silent for a while (slow link), then recovers.
    for dst in ("p01", "p02"):
        world.transport.set_link("p00", dst, LinkModel(1.0, 1.0, drop_prob=1.0))
    world.run_for(400.0)
    for dst in ("p01", "p02"):
        world.transport.set_link("p00", dst, LinkModel(1.0, 1.0))
    assert run_until(
        world,
        lambda: all(r.epoch >= 1 for r in replicas.values()),
        timeout=30_000,
    )
    # The old primary is still a group member and still a server.
    assert "p00" in stacks["p01"].membership.view
    assert run_until(
        world, lambda: all("p00" in r.server_list for r in replicas.values()), timeout=10_000
    )
    # And the demoted primary keeps applying updates as a backup.
    results = []
    client.submit(("post", 1), callback=results.append)
    assert run_until(world, lambda: bool(results), timeout=30_000)
    assert run_until(
        world,
        lambda: replicas["p00"].state.get("post") == 1,
        timeout=20_000,
    )


def test_stale_update_ignored_when_change_ordered_first():
    # Fig. 8 outcome 2: if the primary-change is delivered before the
    # update, the update (tagged with the old epoch) must be ignored
    # everywhere.
    world, stacks, replicas, client = passive_setup(seed=6)
    # Force the race directly through the replica internals.
    primary = replicas["p00"]
    backup = replicas["p01"]
    world.run_for(50.0)
    # The backup requests a change; concurrently the primary updates.
    backup.stack.gbcast.gbcast_payload(("primary_change", "p00"), "primary_change")
    primary.stack.gbcast.gbcast_payload(
        ("update", 0, "cXX", 0, {"race": 1}, ("stored", "race", 1)), "update"
    )
    assert run_until(
        world,
        lambda: all(r.epoch == 1 for r in replicas.values()),
        timeout=30_000,
    )
    world.run_for(2_000.0)
    applied = [r.state.get("race") for r in replicas.values()]
    # Either ALL applied it (update ordered first) or NONE did (change
    # ordered first) — never a mix.
    assert len(set(applied)) == 1


# ----------------------------------------------------------------------
# Footnote 9: the primary's one-outstanding-update pipeline is a FIFO
# sender — its updates g-deliver in request order at every member.
# ----------------------------------------------------------------------
def updates_from(stack, sender):
    """Request ids of ``sender``'s updates, in g-delivery order at ``stack``."""
    return [
        m.payload[3]
        for m, _path in stack.gbcast.delivered_log
        if m.msg_class == UPDATE and m.sender == sender
    ]


def test_primary_updates_keep_request_order_past_slow_acks_and_a_conflict():
    world, stacks, replicas, client = passive_setup(seed=1)
    world.run_for(20.0)
    # Slow acks from p02 keep a conflicting message acked but undelivered
    # while the primary's updates go out.  A primary change naming a
    # backup conflicts with every update and rotates nothing.
    slow = [("p02", "p00"), ("p02", "p01")]
    for src, dst in slow:
        world.transport.set_link(src, dst, LinkModel(80.0, 0.0))
    stacks["p01"].gbcast.gbcast_payload(("primary_change", "p02"), PRIMARY_CHANGE)
    world.run_for(3.0)
    done = []
    for i in range(3):
        client.submit(("seq", i), callback=done.append)
    world.run_for(30.0)
    for src, dst in slow:
        world.transport.set_link(src, dst, LinkModel(1.0, 1.0))
    assert run_until(world, lambda: len(done) == 3, timeout=30_000)
    assert run_until(
        world, lambda: all(len(updates_from(s, "p00")) == 3 for s in stacks.values()),
        timeout=30_000,
    )
    assert world.metrics.counters.get("gbcast.endstages") >= 1  # the conflict was resolved
    for stack in stacks.values():
        assert updates_from(stack, "p00") == [0, 1, 2]
    assert all(r.epoch == 0 and r.state == {"seq": 2} for r in replicas.values())


def test_primary_pipeline_drains_a_queue_of_ten_requests_in_order():
    world, stacks, replicas, client = passive_setup(seed=2)
    primary = replicas["p00"]
    # How many of its own updates the primary had delivered at each send.
    delivered_at_send = []
    send = primary._send_update

    def recording_send(*update):
        delivered_at_send.append(len(updates_from(stacks["p00"], "p00")))
        send(*update)

    primary._send_update = recording_send
    done = []
    for i in range(10):
        client.submit(("seq", i), callback=done.append)
    assert run_until(world, lambda: len(done) == 10, timeout=60_000)
    assert run_until(
        world, lambda: all(len(updates_from(s, "p00")) == 10 for s in stacks.values()),
        timeout=30_000,
    )
    for stack in stacks.values():
        assert updates_from(stack, "p00") == list(range(10))
    assert delivered_at_send == list(range(10))  # one update outstanding at a time
    assert all(r.state == {"seq": 9} for r in replicas.values())


def test_primary_change_while_updates_are_queued_sits_at_one_position():
    world, stacks, replicas, client = passive_setup(seed=3)
    primary = replicas["p00"]
    for i in range(4):
        client.submit(("u", i))
    assert run_until(
        world, lambda: primary._outstanding is not None and primary._queue, timeout=10_000
    )
    stacks["p01"].gbcast.gbcast_payload(("primary_change", "p00"), PRIMARY_CHANGE)
    assert run_until(world, lambda: len(client.completed) == 4, timeout=60_000)
    world.run_for(1_000.0)
    assert all(r.epoch >= 1 for r in replicas.values())
    # FIFO among the deposed primary's updates at every member...
    orders = {tuple(updates_from(s, "p00")) for s in stacks.values()}
    assert len(orders) == 1
    (order,) = orders
    assert order and list(order) == sorted(order)
    # ...and the conflicting change sits at the same position everywhere.
    positions = {
        [m.payload for m, _path in s.gbcast.delivered_log if not m.msg_class.startswith("_")]
        .index(("primary_change", "p00"))
        for s in stacks.values()
    }
    assert len(positions) == 1
    states = [r.state for r in replicas.values()]
    assert all(state == states[0] for state in states)


def idle_keepalives(passive):
    """Datagrams the detectors of an idle n = 5 group send in 10 s."""
    world = World(seed=1, default_link=LinkModel(3.0, 8.0))
    stacks = build_new_group(world, 5, conflict=PASSIVE_REPLICATION)
    if passive:
        attach_passive_replicas(stacks, apply_kv, {})
    world.start()
    world.run_for(10_000.0)
    return stacks, world.metrics.counters.get("net.sent.fd")


def test_passive_replicas_read_the_stacks_monitors_and_cost_no_keepalive():
    # The replica suspects the primary on the stack's small-timeout star:
    # a process holds the stack's two monitors and nothing keeps a link
    # warm on the replica's account.
    stacks, passive = idle_keepalives(passive=True)
    for stack in stacks.values():
        assert stack.fd._monitors == [stack.suspicion_monitor, stack.monitoring.monitor]
    assert passive == idle_keepalives(passive=False)[1] == 5_604


# ----------------------------------------------------------------------
# State transfer: a joiner takes the state, the dedup table, the epoch
# and the server list of its sponsor.
# ----------------------------------------------------------------------
def join_passive_replica(world, stacks, replicas, config, sponsor):
    joiner = add_joiner(world, stacks, config=config)
    replicas[joiner.pid] = PassiveReplicaGB(joiner, apply_kv, {})
    joiner.membership.request_join(sponsor)
    assert run_until(
        world,
        lambda: all(joiner.pid in stacks[pid].membership.view for pid in replicas),
        timeout=30_000,
    )
    return replicas[joiner.pid]


def test_a_joiner_after_a_primary_change_applies_the_new_primarys_updates():
    # p00 crashes, p01 takes over (epoch 1), p00 is excluded, p04 joins:
    # p04 must start from the group's state at epoch 1, or it discards
    # every update of the new primary as stale.
    config = StackConfig(monitoring=MonitoringPolicy(exclusion_timeout=1_000.0))
    world, stacks, replicas, client = passive_setup(seed=7, config=config)
    done = []
    client.submit(("x", 1), callback=done.append)
    assert run_until(world, lambda: len(done) == 1, timeout=20_000)
    world.crash("p00")
    client.submit(("y", 2), callback=done.append)
    assert run_until(world, lambda: len(done) == 2, timeout=30_000)
    assert run_until(world, lambda: "p00" not in stacks["p01"].membership.view, timeout=30_000)
    del replicas["p00"]
    joiner = join_passive_replica(world, stacks, replicas, config, sponsor="p01")
    assert joiner.epoch == 1
    assert joiner.state == {"x": 1, "y": 2}
    client.submit(("z", 3), callback=done.append)
    assert run_until(world, lambda: len(done) == 3, timeout=30_000)
    expected = {"x": 1, "y": 2, "z": 3}
    assert run_until(
        world, lambda: all(r.state == expected for r in replicas.values()), timeout=20_000
    )
    assert {r.epoch for r in replicas.values()} == {1}
    assert all(r.server_list == ["p01", "p02", joiner.pid] for r in replicas.values())
    assert world.metrics.counters.get("passive.stale_updates") == 0


def test_a_joiner_with_no_earlier_primary_change_starts_from_the_groups_state():
    config = StackConfig(monitoring=MonitoringPolicy(exclusion_timeout=60_000.0))
    world, stacks, replicas, client = passive_setup(seed=8, config=config)
    done = []
    client.submit(("x", 1), callback=done.append)
    assert run_until(world, lambda: len(done) == 1, timeout=20_000)
    joiner = join_passive_replica(world, stacks, replicas, config, sponsor="p00")
    # Before any later update: the state and the dedup table came with
    # the snapshot, so a retry of the executed request is answered.
    assert joiner.state == {"x": 1}
    assert joiner._executed == replicas["p00"]._executed
    assert joiner.epoch == 0
    assert joiner.server_list == ["p00", "p01", "p02", joiner.pid]
    assert joiner.server_list == replicas["p00"].server_list
