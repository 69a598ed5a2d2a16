"""The replica core every replication style shares.

:class:`Replica` is the one request path: a replica takes
``(client, req_id, command)`` on :data:`REQUEST_PORT`, answers a request
it has already executed from its dedup table, and replies exactly once
to every request it took, when that request executes.  With clients
sending to every replica (active replication) each replica replies
once; with clients sending to one believed primary, that one replica
replies.

:class:`PrimaryReplica` is the primary-backup core of Section 3.2.2 and,
at the same time, footnote 9's FIFO generic broadcast: the primary keeps
one update outstanding, computes it on the last *delivered* state, and
releases the next one on its own delivery (or discard) of the previous.
Local delivery happens only after the update is ordered against every
message it conflicts with, and a later update is not even broadcast
before that, so every member delivers the primary's updates in request
order although the relation leaves updates unordered.

Each replica owns its state: it starts from its own copy of the initial
state and copies what it receives, so ``apply_fn`` may mutate the state
it is given.

State transfer: :meth:`Replica.snapshot` / :meth:`Replica.install_snapshot`
carry the state and the executed-request dedup table, so a joiner — or a
recovered incarnation rejoining the group — resumes with an identical
copy of the application state and keeps the exactly-once guarantee.  A
replication style adds what its own role logic needs and registers the
section with the membership.
"""

from __future__ import annotations

import copy
from typing import Any, Callable

from repro.net.reliable import ReliableChannel
from repro.replication.client import REPLY_PORT, REQUEST_PORT
from repro.sim.process import Component, Process

ApplyFn = Callable[[Any, Any], tuple[Any, Any]]  # (state, cmd) -> (state', result)


class Replica(Component):
    """Client intake, deduplication and reply."""

    def __init__(
        self, process: Process, channel: ReliableChannel, apply_fn: ApplyFn, initial_state: Any
    ) -> None:
        super().__init__(process, "replica")
        self.channel = channel
        self.apply_fn = apply_fn
        self.state = copy.deepcopy(initial_state)
        self._executed: dict[tuple[str, int], Any] = {}
        self._taken: set[tuple[str, int]] = set()
        self.register_port(REQUEST_PORT, self._on_request)

    def _on_request(self, _src: str, packet: tuple) -> None:
        client, req_id, command = packet
        key = (client, req_id)
        if key in self._executed:
            # A retry: the first reply may have been lost.
            self._reply(client, req_id, self._executed[key])
        elif self._accepts(client) and key not in self._taken:
            self._taken.add(key)
            self._submit(client, req_id, command)

    def _accepts(self, client: str) -> bool:
        """Whether this replica takes requests now."""
        return True

    def _submit(self, client: str, req_id: int, command: Any) -> None:
        """Hand a newly taken request to the group."""
        raise NotImplementedError

    def _complete(self, client: str, req_id: int, result: Any) -> None:
        """Record an execution; reply if this replica took the request."""
        key = (client, req_id)
        self._executed[key] = result
        if key in self._taken:
            self._taken.discard(key)
            self._reply(client, req_id, result)

    def _server_hint(self) -> list[str] | None:
        """The server list a reply carries, so a client's guess converges."""
        return None

    def _reply(self, client: str, req_id: int | None, result: Any) -> None:
        self.channel.send(client, REPLY_PORT, (req_id, result, self._server_hint()))

    # ------------------------------------------------------------------
    # Snapshot / restore (membership state transfer, crash recovery)
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """Everything a fresh replica needs to resume exactly-once."""
        return {"state": copy.deepcopy(self.state), "executed": dict(self._executed)}

    def install_snapshot(self, snapshot: dict[str, Any] | None) -> None:
        if snapshot is None:
            return  # joined a group without replicas; nothing to restore
        self.state = copy.deepcopy(snapshot["state"])
        self._executed = dict(snapshot["executed"])
        self.world.metrics.counters.inc("replica.snapshots_installed")


class PrimaryReplica(Replica):
    """One update outstanding at the primary; backups apply its updates.

    A subclass says who the primary is (:attr:`is_primary`), how an
    update is broadcast (:meth:`_send_update`) and hands every delivered
    update to :meth:`_on_update` with its verdict on the update's
    validity.
    """

    def __init__(
        self, process: Process, channel: ReliableChannel, apply_fn: ApplyFn, initial_state: Any
    ) -> None:
        super().__init__(process, channel, apply_fn, initial_state)
        self._queue: list[tuple[str, int, Any]] = []
        self._outstanding: tuple[str, int] | None = None

    @property
    def is_primary(self) -> bool:
        raise NotImplementedError

    def _send_update(self, client: str, req_id: int, new_state: Any, result: Any) -> None:
        raise NotImplementedError

    def _accepts(self, client: str) -> bool:
        if self.is_primary:
            return True
        # Not our job; the client's retry logic will find the primary
        # (we hint at the current list so it converges fast).
        self._reply(client, None, None)
        return False

    def _submit(self, client: str, req_id: int, command: Any) -> None:
        self._queue.append((client, req_id, command))
        self._drain()

    def _drain(self) -> None:
        while self._outstanding is None and self._queue and self.is_primary:
            client, req_id, command = self._queue.pop(0)
            if (client, req_id) in self._executed:
                continue  # executed under another primary, and answered then
            new_state, result = self.apply_fn(copy.deepcopy(self.state), command)
            self._outstanding = (client, req_id)
            self.world.metrics.counters.inc("passive.updates_sent")
            self._send_update(client, req_id, new_state, result)

    def _on_update(
        self, sender: str, valid: bool, client: str, req_id: int, new_state: Any, result: Any
    ) -> None:
        """A delivered update: applied if ``valid``, void otherwise."""
        key = (client, req_id)
        mine = sender == self.pid
        if valid:
            self.state = copy.deepcopy(new_state)
            self.world.metrics.counters.inc("passive.updates_applied")
            self._complete(client, req_id, result)
        else:
            self.world.metrics.counters.inc("passive.stale_updates")
            if mine:
                # Given back: the client's retry finds the new primary.
                self._taken.discard(key)
        if mine and key == self._outstanding:
            self._outstanding = None
            self._drain()
