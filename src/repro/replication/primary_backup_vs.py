"""Passive replication over view synchrony (the traditional baseline).

Section 3.2.2: "Atomic broadcast is not needed in passive replication.
Instead, view synchrony provides the right abstraction" — this module is
that standard solution, running on the Isis stack; its contrast with the
generic-broadcast solution of :mod:`repro.replication.primary_backup` is
held by ``tests/replication/test_passive_vs.py``:

* the primary (head of the current view) processes requests and
  broadcasts updates with the view-synchronous primitive;
* a primary crash is handled by the membership below: the group blocks,
  flushes, excludes the primary and installs a new view whose head is the
  new primary — i.e. **every primary change is an exclusion**, and a
  false suspicion kills a correct primary (Section 4.3);
* sending view delivery guarantees an update is delivered in the view it
  was sent in, so an update from a deposed primary can never be delivered
  after the change — the ordering problem generic broadcast solves with
  the conflict relation is solved here by blocking the group instead.
"""

from __future__ import annotations

from typing import Any

from repro.membership.view import View
from repro.net.message import MsgId
from repro.replication.replica import ApplyFn, PrimaryReplica
from repro.traditional.isis import IsisStack

UPDATE_TAG = "pb.update"


class PassiveReplicaVS(PrimaryReplica):
    """One replica of a passively replicated service over Isis VS."""

    def __init__(self, stack: IsisStack, apply_fn: ApplyFn, initial_state: Any) -> None:
        super().__init__(stack.process, stack.channel, apply_fn, initial_state)
        self.stack = stack
        stack.vs.register(UPDATE_TAG, self._on_vs_update)
        stack.vs.on_new_view(self._on_new_view)

    @property
    def is_primary(self) -> bool:
        view = self.stack.view()
        return view is not None and len(view) > 0 and view.primary == self.pid

    def _server_hint(self) -> list[str]:
        view = self.stack.view()
        return [] if view is None else view.member_list()

    def _send_update(self, client: str, req_id: int, new_state: Any, result: Any) -> None:
        self.stack.vs.bcast(UPDATE_TAG, (self.pid, client, req_id, new_state, result))

    def _on_vs_update(self, _origin: str, payload: tuple, _mid: MsgId) -> None:
        # An update from a process that is no longer (or was never) the
        # primary of the delivery view is void.
        sender, client, req_id, new_state, result = payload
        view = self.stack.view()
        valid = view is not None and sender == view.primary
        self._on_update(sender, valid, client, req_id, new_state, result)

    def _on_new_view(self, _view: View) -> None:
        # Primary change == view change (exclusion) in this baseline.
        self.world.metrics.counters.inc("passive.primary_changes")
        self._drain()


def attach_passive_vs_replicas(
    stacks: dict[str, IsisStack], apply_fn: ApplyFn, initial_state: Any
) -> dict[str, PassiveReplicaVS]:
    return {pid: PassiveReplicaVS(stack, apply_fn, initial_state) for pid, stack in stacks.items()}
