"""Unit tests for membership built on atomic broadcast."""

import pytest

from repro.core.new_stack import StackConfig
from repro.gbcast.conflict import RBCAST_ABCAST
from repro.sim.world import add_joiner

from tests.conftest import new_group, run_until


def views_of(stacks, pid):
    return [str(v) for v in stacks[pid].membership.view_history]


def test_remove_installs_same_view_everywhere():
    world, stacks, _ = new_group()
    stacks["p00"].membership.remove("p02")
    remaining = ("p00", "p01")
    assert run_until(
        world,
        lambda: all(stacks[p].membership.view.id == 1 for p in remaining),
        timeout=10_000,
    )
    for pid in remaining:
        assert stacks[pid].membership.view.members == ("p00", "p01")


def test_views_are_totally_ordered_under_concurrent_removes():
    world, stacks, _ = new_group(count=5, seed=2)
    stacks["p00"].membership.remove("p03")
    stacks["p01"].membership.remove("p04")
    remaining = ("p00", "p01", "p02")
    assert run_until(
        world,
        lambda: all(stacks[p].membership.view.id == 2 for p in remaining),
        timeout=10_000,
    )
    histories = [views_of(stacks, p) for p in remaining]
    assert histories[0] == histories[1] == histories[2]


@pytest.mark.parametrize("coalesce_delay", [None, 1.0])
def test_member_can_remove_itself_leave(coalesce_delay):
    # Regression: on exclusion the reliable channel used to drop segments
    # still waiting in the coalescing buffer, among them the DECIDE that
    # carries the removal — the leaver never learned it had left.
    world, stacks, _ = new_group(config=StackConfig(coalesce_delay=coalesce_delay))
    stacks["p02"].membership.remove("p02")
    # The leaver sees its own removal in the same total order.
    assert run_until(
        world,
        lambda: all(s.membership.view.members == ("p00", "p01") for s in stacks.values()),
        timeout=10_000,
    )
    assert "p02" not in stacks["p02"].membership.current_members()


def test_duplicate_remove_requests_create_one_view_change():
    world, stacks, _ = new_group()
    for pid in ("p00", "p01"):
        stacks[pid].membership.remove("p02")
    assert run_until(
        world,
        lambda: all(stacks[p].membership.view.id >= 1 for p in ("p00", "p01")),
        timeout=10_000,
    )
    world.run_for(2_000.0)
    assert stacks["p00"].membership.view.id == 1  # not 2


def test_join_with_state_transfer():
    world, stacks, _ = new_group()
    world.run_for(100.0)
    joiner = add_joiner(world, stacks, conflict=RBCAST_ABCAST)
    assert joiner.membership.view is None
    joiner.membership.request_join("p00")
    assert run_until(
        world,
        lambda: joiner.membership.view is not None
        and all(
            "p03" in stacks[p].membership.view
            for p in ("p00", "p01", "p02")
        ),
        timeout=20_000,
    )
    assert joiner.membership.view.members[-1] == "p03"
    assert world.metrics.counters.get("gm.state_transfers") >= 1


def test_joiner_participates_in_ordering_after_join():
    world, stacks, _ = new_group(seed=4)
    world.run_for(100.0)
    joiner = add_joiner(world, stacks)
    joiner.membership.request_join("p01")
    assert run_until(world, lambda: joiner.membership.view is not None, timeout=20_000)
    world.run_for(500.0)
    # The joiner broadcasts and everyone (including it) delivers.
    msg = joiner.process.msg_ids.message("from-joiner")
    joiner.abcast.abcast(msg)
    def joined_delivery():
        return all(
            any(m.payload == "from-joiner" for m in s.abcast.delivered_log)
            for s in stacks.values()
        )
    assert run_until(world, joined_delivery, timeout=20_000)


def test_app_state_transfer_handlers():
    world, stacks, _ = new_group(seed=5)
    for pid, stack in stacks.items():
        stack.membership.set_state_handlers(lambda pid=pid: {"from": pid}, lambda s: None)
    installed = []
    world.run_for(100.0)
    joiner = add_joiner(world, stacks)
    joiner.membership.set_state_handlers(lambda: None, installed.append)
    joiner.membership.request_join("p00")
    assert run_until(world, lambda: bool(installed), timeout=20_000)
    assert installed[0]["from"] == "p00"  # snapshot came from the primary


def test_view_callbacks_fire_in_order():
    world, stacks, _ = new_group(seed=6)
    seen = []
    stacks["p00"].membership.on_new_view(lambda v: seen.append(v.id))
    stacks["p00"].membership.remove("p02")
    assert run_until(world, lambda: seen == [1], timeout=10_000)
    stacks["p00"].membership.remove("p01")
    assert run_until(world, lambda: seen == [1, 2], timeout=10_000)


def test_snapshot_sponsor_skips_the_joiner_itself():
    """The state-transfer sponsor is the first view member that is not
    the joiner: a crashed primary recovering before exclusion is still
    at the head of the unchanged view and cannot sponsor itself."""
    world, stacks, _ = new_group()
    gm = stacks["p01"].membership
    assert gm.view.primary == "p00"
    assert gm._snapshot_sponsor("p02") == "p00"  # normal case: primary
    assert gm._snapshot_sponsor("p00") == "p01"  # primary rejoining
