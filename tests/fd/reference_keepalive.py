"""The keep-alive pass as it was before the detector kept one record per
peer: ``_keepalive`` and the helpers it calls, copied verbatim from the
five-map detector, over the maps it read.

``test_keepalive_reference.py`` drives this and the detector's own pass
from the same states and requires the same datagrams, flushes, counts,
deadlines and wake-up time.  Nothing here is imported by the program.
"""

from __future__ import annotations

from repro.fd.heartbeat import KEEPALIVE_SLACK, PORT, SILENCES_PER_TIMEOUT
from repro.sim.scheduler import DUE_SLACK


class ReferenceDetector:
    """The state the old pass read, and its methods unchanged.

    ``world.transport`` needs ``u_send`` and the ``last_sent(src, dst)``
    the five-map transport had; ``schedule(delay, callback)`` is the
    timer the pass arms.
    """

    def __init__(self, pid, peer_provider, heartbeat_interval, channel, world, schedule):
        self.pid = pid
        self.peer_provider = peer_provider
        self.heartbeat_interval = heartbeat_interval
        self._channel = channel
        self.world = world
        self.schedule = schedule
        self.now = 0.0
        self._monitors = []
        self._small_timeout = 0.0
        self._last_heard = {}
        self._cadence = {}
        self._deadlines = {}
        self._said = {}
        self.counts = {"suppressed": 0, "explicit": 0}
        self._timer = None

    def _inc_suppressed(self):
        self.counts["suppressed"] += 1

    def _inc_explicit(self):
        self.counts["explicit"] += 1

    def _cadence_of(self, peer: str) -> tuple[float, bool]:
        """What the monitors held here make of the link to ``peer``, until
        one of them changes its mind (``_cadence`` is cleared then).
        (R3) The longest silence ``peer`` is owed on their account:
        ``heartbeat_interval`` where the fastest of them reads the link
        (watching is mutual, R1 — and a detector cannot see its peers'
        monitors, so one that holds none assumes it everywhere), else a
        quarter of the fastest timeout that does read it.  (R4) And what a
        heartbeat to ``peer`` says: a monitor that does not watch
        everybody watches *you* first-hand — answer in kind."""
        known = self._cadence.get(peer)
        if known is None:
            monitors = self._monitors
            reader = min((m.timeout for m in monitors if m.reads(peer)), default=0.0)
            interval = self.heartbeat_interval
            if reader > self._small_timeout:
                interval = max(interval, reader / SILENCES_PER_TIMEOUT)
            asks = any(m.asks(peer) for m in monitors)
            known = self._cadence[peer] = (interval, asks)
        return known

    def _told(self, peer: str, asks: bool) -> bool:
        """Whether ``peer``'s latest heartbeat said ``asks`` and still holds."""
        said = self._said.get(peer)
        return said is not None and said[0] is asks and said[1] > self.now

    def _owed(self, peer: str) -> tuple[float, bool]:
        """:meth:`_interval` and whether a heartbeat to ``peer`` asks, from
        one read of the link's cadence."""
        interval, asks = self._cadence_of(peer)
        if interval > self.heartbeat_interval and self._told(peer, True):
            return self.heartbeat_interval, asks
        return interval, asks

    def _must_ask(self, peer: str) -> bool:
        """Traffic proves our liveness to ``peer`` but cannot ask it for
        its own.  The question goes out regardless while the peer answers
        only because it is asked (its heartbeats say it does not watch
        us), or is silent: its cadence toward us may be the slow one."""
        if self._told(peer, False):
            return True
        heard = self._last_heard.get(peer)
        return heard is None or self.now - heard >= self.heartbeat_interval

    def _keepalive(self) -> None:
        """Send the keep-alives that have fallen due (or will within the
        slack) and sleep until the next deadline.  A deadline is looked at
        again only once reached: traffic sent meanwhile has moved it,
        which counts as one suppressed heartbeat — and so does a due
        keep-alive that goes out as what the channel owed the peer."""
        now = self.now
        transport = self.world.transport
        channel = self._channel
        deadlines: dict[str, float] = {}
        for peer in self.peer_provider():
            if peer == self.pid:
                continue
            deadline = self._deadlines.get(peer, now)  # a new peer is owed one at once
            interval, asks = self._owed(peer)
            due_by = now + interval * KEEPALIVE_SLACK + DUE_SLACK
            if deadline <= due_by:
                suppress = channel is not None and not (asks and self._must_ask(peer))
                sent = transport.last_sent(self.pid, peer) if suppress else None
                if sent is not None and sent + interval > due_by:
                    # Our own traffic since proved our liveness to this peer.
                    self._inc_suppressed()
                    deadline = sent + interval
                elif suppress and channel.flush_toward(peer):
                    # What the channel owed this peer left instead.
                    self._inc_suppressed()
                    deadline = now + interval
                else:
                    self._inc_explicit()
                    self.world.transport.u_send(self.pid, peer, PORT, asks, layer="fd")
                    deadline = now + interval
            deadlines[peer] = deadline
        # Peers that left the set are forgotten; with nobody to talk to,
        # look for peers again one interval on.
        self._deadlines = deadlines
        wake = min(deadlines.values(), default=now + self.heartbeat_interval)
        self._timer = self.schedule(max(0.0, wake - now), self._keepalive)


reference_keepalive = ReferenceDetector._keepalive
