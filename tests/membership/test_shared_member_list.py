"""``current_members()`` hands out one list per installed view.

Every layer of the new stack reads the group through its membership's
``current_members()`` — 73 calls per op on the observatory's
``bulk_ring`` — and the star monitor tells a view change by the list's
identity.  The list is shared, so it is read-only by contract: the
fixture below makes every list a view hands out refuse mutation, and a
whole lifecycle and the explorer's adversarial seeds must then run
exactly as they do unguarded.
"""

import pytest

from repro.core.api import GroupCommunication
from repro.core.new_stack import StackConfig, build_new_group, enable_recovery
from repro.explore.explorer import explore_seed
from repro.membership.view import View
from repro.monitoring.component import MonitoringPolicy
from repro.sim.world import World

from tests.conftest import new_group, run_until


class ReadOnlyList(list):
    """A list whose every mutator raises."""

    def _refuse(self, *_args, **_kwargs):
        raise TypeError("a member list handed out by a view is read-only")

    __setitem__ = __delitem__ = __iadd__ = __imul__ = _refuse
    append = extend = insert = remove = pop = clear = sort = reverse = _refuse


def make_member_lists_read_only(patch: pytest.MonkeyPatch) -> None:
    patch.setattr(View, "member_list", lambda self: ReadOnlyList(self.members))


@pytest.fixture
def read_only_member_lists(monkeypatch):
    make_member_lists_read_only(monkeypatch)


def test_the_read_only_list_refuses_every_mutation(read_only_member_lists):
    members = View.initial(["p00", "p01"]).member_list()
    assert isinstance(members, list) and members == ["p00", "p01"]
    for mutate in (
        lambda m: m.append("p02"),
        lambda m: m.pop(),
        lambda m: m.__setitem__(0, "p09"),
        lambda m: m.__iadd__(["p02"]),
        lambda m: m.sort(),
    ):
        with pytest.raises(TypeError):
            mutate(members)
    assert members == ["p00", "p01"]


def test_one_list_per_installed_view():
    world, stacks, _ = new_group()
    membership = stacks["p00"].membership
    first = membership.current_members()
    assert first == ["p00", "p01", "p02"]
    assert membership.current_members() is first
    membership.remove("p02")
    assert run_until(world, lambda: membership.view.id == 1)
    second = membership.current_members()
    assert second == ["p00", "p01"] and second is not first
    assert membership.current_members() is second
    assert first == ["p00", "p01", "p02"]  # the old view's list is left alone


def lifecycle() -> dict:
    """A new-stack group through a remove, a crash and a re-admission;
    what every member installed and delivered, and the run's counters."""
    world = World(seed=3)
    config = StackConfig(monitoring=MonitoringPolicy(exclusion_timeout=600.0))
    stacks = build_new_group(world, 4, config=config)
    apis = {pid: GroupCommunication(stack) for pid, stack in stacks.items()}
    enable_recovery(
        world, stacks, config=config,
        on_rebuild=lambda pid, stack: apis.__setitem__(pid, GroupCommunication(stack)),
    )
    world.start()
    for i in range(4):
        apis["p00"].abcast(("m", i))
    world.run_for(200.0)
    stacks["p01"].membership.remove("p03")
    world.crash("p02", at=400.0)
    world.recover("p02", at=1_200.0)
    world.run_for(3_000.0)
    apis["p01"].abcast("late")
    world.run_for(2_000.0)
    return {
        "views": {pid: [str(v) for v in s.membership.view_history] for pid, s in stacks.items()},
        "members": {pid: list(s.membership.current_members()) for pid, s in stacks.items()},
        "delivered": {
            pid: [str(m.id) for m in s.abcast.delivered_log] for pid, s in stacks.items()
        },
        "counters": world.metrics.counters.snapshot(),
        "events": world.scheduler.events_processed,
    }


def test_a_lifecycle_runs_the_same_when_member_lists_refuse_mutation(monkeypatch):
    unguarded = lifecycle()
    # The lifecycle is what it says: p03 removed, p02 excluded and back.
    assert unguarded["views"]["p00"] == [
        "v0[p00;p01;p02;p03]", "v1[p00;p01;p02]", "v2[p00;p01]", "v3[p00;p01;p02]",
    ]
    assert unguarded["members"]["p02"] == ["p00", "p01", "p02"]
    with monkeypatch.context() as patch:
        make_member_lists_read_only(patch)
        guarded = lifecycle()
    assert guarded == unguarded


#: Explorer seeds whose adversarial plans crash and recover a member.
CRASH_AND_REJOIN_SEEDS = (0, 1, 5, 6, 7, 9)


@pytest.mark.parametrize("seed", CRASH_AND_REJOIN_SEEDS)
def test_explored_seeds_run_the_same_when_member_lists_refuse_mutation(seed, monkeypatch):
    unguarded = explore_seed(seed)
    kinds = [event.kind for event in unguarded.config.plan.events]
    assert "crash" in kinds and "recover" in kinds
    with monkeypatch.context() as patch:
        make_member_lists_read_only(patch)
        guarded = explore_seed(seed)
    assert guarded.result == unguarded.result
    assert guarded.config == unguarded.config
