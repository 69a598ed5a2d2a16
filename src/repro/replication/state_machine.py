"""Active replication (state machine approach, Section 3.2.2 / [33]).

Client requests are generic-broadcast to the group under the class
``classify(command)`` gives them; every replica executes every request
on g-delivery, so replicas that order every conflicting pair of commands
the same way stay identical.  The default classifier puts every command
in the ``abcast`` class — atomic broadcast, the textbook state machine.
The Section 4.2 bank (:mod:`repro.replication.bank`) is this replica with
a classifier under which deposits commute: same state machine, different
conflict relation.  Availability: as long as a majority of replicas is
alive, requests keep being executed — no view change needed
(Section 3.1.1).

Requests are deduplicated by ``(client, req_id)``: with clients sending
to all replicas, the same request is broadcast up to n times but
executed once.

Crash recovery: a replica registers the replica core's snapshot (state,
executed-request dedup table) plus its command log as the membership
state-transfer handlers, so a joiner — or a recovered incarnation
rejoining the group — resumes with an identical copy of the application
state and keeps the exactly-once guarantee across its crash.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.core.new_stack import NewArchitectureStack
from repro.gbcast.conflict import ABCAST_CLASS
from repro.net.message import AppMessage
from repro.replication.replica import ApplyFn, Replica

Classifier = Callable[[Any], str]  # command -> conflict class


def abcast_class(_command: Any) -> str:
    """Every command conflicts with every other: atomic broadcast."""
    return ABCAST_CLASS


class ActiveReplica(Replica):
    """One replica of an actively replicated service."""

    def __init__(
        self,
        stack: NewArchitectureStack,
        apply_fn: ApplyFn,
        initial_state: Any,
        classify: Classifier = abcast_class,
    ) -> None:
        super().__init__(stack.process, stack.channel, apply_fn, initial_state)
        self.stack = stack
        self.classify = classify
        self.command_log: list[Any] = []
        stack.gbcast.on_gdeliver(self._on_gdeliver)
        stack.membership.set_state_handlers(self.snapshot, self.install_snapshot)

    def _submit(self, client: str, req_id: int, command: Any) -> None:
        self.stack.gbcast.gbcast_payload(("cmd", client, req_id, command), self.classify(command))

    def _on_gdeliver(self, message: AppMessage) -> None:
        payload = message.payload
        if type(payload) is not tuple or payload[:1] != ("cmd",):
            return  # not a client command (control traffic, or another service's)
        _tag, client, req_id, command = payload
        if (client, req_id) in self._executed:
            return  # duplicate broadcast of the same request
        self.state, result = self.apply_fn(self.state, command)
        self.command_log.append(command)
        self.world.metrics.counters.inc("replica.executed")
        self._complete(client, req_id, result)

    def snapshot(self) -> dict[str, Any]:
        return {**super().snapshot(), "command_log": list(self.command_log)}

    def install_snapshot(self, snapshot: dict[str, Any] | None) -> None:
        super().install_snapshot(snapshot)
        if snapshot is not None:
            self.command_log = list(snapshot["command_log"])
            self.trace("snapshot_installed", commands=len(self.command_log))


def attach_active_replicas(
    stacks: dict[str, NewArchitectureStack],
    apply_fn: ApplyFn,
    initial_state: Any,
    classify: Classifier = abcast_class,
) -> dict[str, ActiveReplica]:
    """Wire an ActiveReplica onto every stack of a new-architecture group
    (on recovery rebuild, construct one ``ActiveReplica`` for the
    recovered process)."""
    return {
        pid: ActiveReplica(stack, apply_fn, initial_state, classify)
        for pid, stack in stacks.items()
    }
