"""Passive replication over generic broadcast (Sections 3.2.2–3.2.3, Fig. 8).

The paper's showcase for replacing view synchrony with generic
broadcast.  Two message classes with the Section 3.2.3 conflict table:

* ``update`` — the primary's state update after processing a client
  request; updates do NOT conflict with each other;
* ``primary_change`` — a backup's request to demote the suspected
  primary; conflicts with updates and with other primary changes.

Because the two classes conflict, exactly the two outcomes of Fig. 8 are
possible: either the update is delivered before the primary change
(the request took effect) or after it (the update is *stale* — tagged
with the old epoch — and ignored; the client times out, learns the new
primary and re-issues the request).

A backup requests the change when the stack's small-timeout monitor
(``stack.suspicion_monitor``, the one consensus and generic broadcast
read) suspects the primary: no second monitor, and no link kept warm on
the replica's account.  A primary change merely ROTATES the server list
([s1;s2;s3] → [s2;s3;s1]); the old primary is not excluded (that is the
monitoring component's job, on a much larger timeout).

FIFO requirement (footnote 9 of the paper): the primary serialises its
updates through :class:`~repro.replication.replica.PrimaryReplica` — it
issues update *k+1* only after delivering its own update *k* — so updates
apply in primary-processing order even though the relation does not
order them.

State transfer: a joiner — a new process, or an excluded one that
recovered — takes the replica core's snapshot (state, dedup table) with
the primary-change ``epoch`` and the rotated ``server_list`` of its
sponsor, so it applies the current primary's updates instead of
discarding them as stale and agrees with the group on who is primary.
"""

from __future__ import annotations

from typing import Any

from repro.core.new_stack import NewArchitectureStack
from repro.gbcast.conflict import PRIMARY_CHANGE, UPDATE
from repro.membership.view import View
from repro.net.message import AppMessage
from repro.replication.replica import ApplyFn, PrimaryReplica


class PassiveReplicaGB(PrimaryReplica):
    """One replica of a passively replicated service over gbcast."""

    def __init__(
        self,
        stack: NewArchitectureStack,
        apply_fn: ApplyFn,
        initial_state: Any,
    ) -> None:
        super().__init__(stack.process, stack.channel, apply_fn, initial_state)
        self.stack = stack
        view = stack.view()
        self.server_list: list[str] = view.member_list() if view else []
        self.epoch = 0
        self._change_requested_for: set[int] = set()
        stack.gbcast.on_gdeliver(self._on_gdeliver)
        stack.membership.on_new_view(self._on_new_view)
        stack.membership.set_state_handlers(self.snapshot, self.install_snapshot)
        stack.suspicion_monitor.subscribe(self._on_suspicion)

    # ------------------------------------------------------------------
    # Roles
    # ------------------------------------------------------------------
    @property
    def primary(self) -> str:
        return self.server_list[0]

    @property
    def is_primary(self) -> bool:
        return bool(self.server_list) and self.primary == self.pid

    def _server_hint(self) -> list[str]:
        return list(self.server_list)

    def _send_update(self, client: str, req_id: int, new_state: Any, result: Any) -> None:
        self.stack.gbcast.gbcast_payload(
            ("update", self.epoch, client, req_id, new_state, result), UPDATE
        )

    def snapshot(self) -> dict[str, Any]:
        return {**super().snapshot(), "epoch": self.epoch, "server_list": list(self.server_list)}

    def install_snapshot(self, snapshot: dict[str, Any] | None) -> None:
        super().install_snapshot(snapshot)
        if snapshot is not None:
            self.epoch = snapshot["epoch"]
            self.server_list = list(snapshot["server_list"])

    # ------------------------------------------------------------------
    # Generic broadcast deliveries
    # ------------------------------------------------------------------
    def _on_gdeliver(self, message: AppMessage) -> None:
        if message.msg_class == UPDATE:
            _tag, epoch, client, req_id, new_state, result = message.payload
            valid = epoch == self.epoch
            if not valid:
                # Fig. 8 case 2: the primary change was ordered before this
                # update — the deposed primary's processing must be ignored.
                self.trace("stale_update", from_epoch=epoch, epoch=self.epoch)
            self._on_update(message.sender, valid, client, req_id, new_state, result)
        elif message.msg_class == PRIMARY_CHANGE:
            self._on_primary_change(message)

    def _on_primary_change(self, message: AppMessage) -> None:
        suspected = message.payload[1]
        if not self.server_list or suspected != self.server_list[0]:
            return  # stale change (someone already rotated past this one)
        self.server_list = self.server_list[1:] + self.server_list[:1]
        self.epoch += 1
        self.world.metrics.counters.inc("passive.primary_changes")
        self.trace("primary_change", new_primary=self.server_list[0], epoch=self.epoch)
        # A new primary may have inherited queued requests it can now serve.
        self._drain()

    # ------------------------------------------------------------------
    # Suspicion of the primary (small timeout — no exclusion!)
    # ------------------------------------------------------------------
    def _on_suspicion(self, suspect: str) -> None:
        if not self.server_list or suspect != self.server_list[0] or self.is_primary:
            return
        if self.epoch in self._change_requested_for:
            return
        self._change_requested_for.add(self.epoch)
        self.world.metrics.counters.inc("passive.change_requests")
        self.trace("request_primary_change", suspected=suspect)
        self.stack.gbcast.gbcast_payload(("primary_change", suspect), PRIMARY_CHANGE)

    # ------------------------------------------------------------------
    # Real exclusions (monitoring component, large timeout)
    # ------------------------------------------------------------------
    def _on_new_view(self, view: View) -> None:
        gone = [s for s in self.server_list if s not in view]
        if not gone:
            for member in view.members:
                if member not in self.server_list:
                    self.server_list.append(member)
            return
        head_was = self.server_list[0] if self.server_list else None
        self.server_list = [s for s in self.server_list if s in view]
        if self.server_list and head_was not in self.server_list:
            self.epoch += 1  # the head changed by exclusion
            self._drain()


def attach_passive_replicas(
    stacks: dict[str, NewArchitectureStack],
    apply_fn: ApplyFn,
    initial_state: Any,
) -> dict[str, PassiveReplicaGB]:
    """Wire a PassiveReplicaGB onto every stack (conflict relation must be
    PASSIVE_REPLICATION)."""
    return {
        pid: PassiveReplicaGB(stack, apply_fn, initial_state) for pid, stack in stacks.items()
    }
