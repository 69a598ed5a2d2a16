"""Closed-loop clients for the replicated services.

A client is its own simulated process (with a reliable channel) issuing
requests to the server group:

* active replication — the request goes to *all* replicas (each abcasts
  it; replicas deduplicate by request id); the first reply wins;
* passive replication — the request goes to the *believed primary* only;
  on timeout the client rotates its guess and re-issues the request,
  exactly the retry behaviour of the Fig. 8 scenario ("the client will
  timeout, learn that s2 is the new primary, and reissue its request").

Request latencies are recorded under the ``request`` tag (and
``request.<label>`` when a label is given).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.net.reliable import ReliableChannel
from repro.sim.process import Component, Process

REPLY_PORT = "client.reply"
REQUEST_PORT = "replica.req"

ReplyFn = Callable[[Any], None]


@dataclass
class _PendingRequest:
    req_id: int
    command: Any
    callback: ReplyFn | None
    label: str
    sent_at: float
    attempts: int = 1
    replies: list[Any] = field(default_factory=list)


class ReplicationClient(Component):
    """A client process issuing requests to a replica group."""

    def __init__(
        self,
        process: Process,
        channel: ReliableChannel,
        servers: list[str],
        mode: str,
        retry_timeout: float,
    ) -> None:
        if mode not in ("all", "primary"):
            raise ValueError(f"unknown client mode {mode!r}")
        super().__init__(process, "client")
        self.channel = channel
        self.servers = list(servers)
        self.mode = mode
        self.retry_timeout = retry_timeout
        self._req_ids = itertools.count()
        self._pending: dict[int, _PendingRequest] = {}
        self.completed: list[tuple[Any, Any]] = []
        self.register_port(REPLY_PORT, self._on_reply)

    # ------------------------------------------------------------------
    # Request issue / retry
    # ------------------------------------------------------------------
    def submit(self, command: Any, callback: ReplyFn | None = None, label: str = "") -> int:
        req_id = next(self._req_ids)
        request = _PendingRequest(req_id, command, callback, label, self.now)
        self._pending[req_id] = request
        self.world.metrics.counters.inc("client.requests")
        self.world.metrics.latency.begin("request", (self.pid, req_id), self.now)
        if label:
            self.world.metrics.latency.begin(f"request.{label}", (self.pid, req_id), self.now)
        self._send(request)
        self.schedule(self.retry_timeout, self._maybe_retry, req_id)
        return req_id

    def _targets(self, request: _PendingRequest) -> list[str]:
        if self.mode == "all":
            return list(self.servers)
        # "primary": rotate the guess on every attempt.
        index = (request.attempts - 1) % len(self.servers)
        return [self.servers[index]]

    def _send(self, request: _PendingRequest) -> None:
        packet = (self.pid, request.req_id, request.command)
        for server in self._targets(request):
            self.channel.send(server, REQUEST_PORT, packet)

    def _maybe_retry(self, req_id: int) -> None:
        request = self._pending.get(req_id)
        if request is None:
            return
        request.attempts += 1
        self.world.metrics.counters.inc("client.retries")
        self.trace("retry", req_id=req_id, attempt=request.attempts)
        self._send(request)
        self.schedule(self.retry_timeout, self._maybe_retry, req_id)

    # ------------------------------------------------------------------
    # Replies
    # ------------------------------------------------------------------
    def _on_reply(self, _src: str, packet: tuple) -> None:
        req_id, result, server_hint = packet
        if server_hint:
            # Passive replication: replies carry the current server list
            # so the client's primary guess converges.
            self.servers = list(server_hint)
        request = self._pending.pop(req_id, None)
        if request is None:
            return  # duplicate reply
        self.world.metrics.counters.inc("client.replies")
        self.world.metrics.latency.end("request", (self.pid, req_id), self.now)
        if request.label:
            self.world.metrics.latency.end(
                f"request.{request.label}", (self.pid, req_id), self.now
            )
        self.completed.append((request.command, result))
        if request.callback is not None:
            request.callback(result)

    def outstanding(self) -> int:
        return len(self._pending)


def spawn_client(
    world, servers: list[str], mode: str = "all", retry_timeout: float = 400.0, name: str | None = None
) -> ReplicationClient:
    """Create a fresh client process wired with its own channel."""
    pid = name or f"c{len(world.processes):02d}"
    process = world.add_process(pid)
    channel = ReliableChannel(process)
    return ReplicationClient(process, channel, servers, mode=mode, retry_timeout=retry_timeout)
