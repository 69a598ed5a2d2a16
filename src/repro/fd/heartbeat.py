"""Heartbeat failure detector with per-client monitors.

A single failure-detection component per process records when each peer
was last heard and broadcasts heartbeats on the *unreliable* transport.
Clients (consensus, the monitoring component, membership layers of the
traditional stacks) each create a :class:`Monitor` with their own timeout
— this is the ``start_stop_monitor`` interface of Fig. 9 and the basis of
Section 3.3.2: consensus can use a small timeout (seconds) while the
monitoring component uses a large one (minutes), over the same liveness
evidence.

**Traffic-aware liveness.**  Explicit heartbeats are the *idle-link
fallback*, not the only evidence:

* a **liveness tap** registered on the transport refreshes ``last_heard``
  for every datagram received from a peer — an rc segment, rbcast gossip,
  a gbcast ack or a consensus round all prove the sender alive (the
  paper's §3.3.2 observation that *any* received message is liveness
  evidence, here applied at the transport).  The transport's incarnation
  fence runs first, so a stale pre-crash datagram can never vouch for a
  recovered process; the tap re-checks the incarnation anyway for
  directly injected traffic.
* with ``suppression`` on, the per-peer heartbeat send is **skipped**
  whenever we sent that peer any datagram within the last
  ``heartbeat_interval`` ms — our outbound traffic already proves our
  liveness to them.  Under load the O(n) periodic
  broadcast collapses to sends on idle links only; a crashed peer's
  links go idle immediately (it sends nothing), so time-to-suspect is
  unchanged.
* the reliable channel piggybacks the sender's current **hb-epoch**
  (``current_hb_epoch``, bumped once per beat) on its datagrams and
  feeds received epochs back via :meth:`note_piggyback_sample`.  The
  arrival-gap estimator samples at most once per (peer, epoch), so the
  adaptive detector keeps seeing one sample per heartbeat period —
  whether the sample arrived as an explicit heartbeat or on the back of
  application traffic.

The detector is unreliable in the sense of Chandra–Toueg [10]: it can
suspect correct processes (small timeouts, message loss, partitions) and
revises its output when evidence arrives — the behaviour assumed of
◇S.  Nothing emulates a perfect detector here; the *traditional* stacks
obtain P-like behaviour the way the paper describes: by killing/excluding
suspected processes (Section 3.1.1).  They are built with ``suppression``
off, preserving the paper's constant heartbeat stream for comparison.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.sim.process import Component, Process

PORT = "fd.hb"

PeerProvider = Callable[[], list[str]]
SuspicionCallback = Callable[[str], None]
ReincarnationCallback = Callable[[str, int], None]


class Monitor:
    """One client's view of the failure detector.

    ``suspects`` is the current set of suspected peers; ``on_suspect`` /
    ``on_trust`` fire on transitions.  Monitors can be stopped (Fig. 9's
    ``start_stop_monitor``).
    """

    def __init__(
        self,
        detector: "HeartbeatFailureDetector",
        peers: PeerProvider,
        timeout: float,
        on_suspect: SuspicionCallback | None = None,
        on_trust: SuspicionCallback | None = None,
    ) -> None:
        self._detector = detector
        self._peers = peers
        self.timeout = timeout
        self._on_suspect = on_suspect
        self._on_trust = on_trust
        self.suspects: set[str] = set()
        self.active = True
        self._started_at = detector.now
        #: When each peer (re-)entered the monitored set.  A peer that
        #: joins (or a recovered process re-admitted to the view) gets a
        #: full timeout of grace from that moment — without this, a
        #: stale ``last_heard`` from before its crash would make the
        #: monitor re-suspect it the instant it re-enters the view.
        self._member_since: dict[str, float] = {}

    def stop(self) -> None:
        self.active = False

    def restart(self) -> None:
        self.active = True
        self._started_at = self._detector.now
        self.suspects.clear()
        self._member_since.clear()

    def suspected(self, pid: str) -> bool:
        return pid in self.suspects

    def timeout_for(self, peer: str) -> float:
        """Current timeout applied to ``peer`` (constant here; adaptive
        monitors override this)."""
        return self.timeout

    def _check(self) -> None:
        if not self.active:
            return
        now = self._detector.now
        peers = set(self._peers())
        peers.discard(self._detector.pid)
        # Peers that left the monitored set are forgotten — including
        # their membership baseline, so a later re-entry (rejoin after
        # recovery) starts a fresh grace period.
        for gone in [p for p in self.suspects if p not in peers]:
            self.suspects.discard(gone)
        for gone in [p for p in self._member_since if p not in peers]:
            del self._member_since[gone]
        for peer in sorted(peers):
            since = self._member_since.setdefault(peer, now)
            last = self._detector.last_heard(peer)
            if last is None or last < since:
                last = since
            silent_for = now - last
            if silent_for > self.timeout_for(peer):
                if peer not in self.suspects:
                    self.suspects.add(peer)
                    self._detector.trace("suspect", peer=peer, timeout=self.timeout)
                    if self._on_suspect is not None:
                        self._on_suspect(peer)
            elif peer in self.suspects:
                self.suspects.discard(peer)
                self._detector.trace("trust", peer=peer, timeout=self.timeout)
                if self._on_trust is not None:
                    self._on_trust(peer)


class HeartbeatFailureDetector(Component):
    """Shared liveness evidence + any number of per-client monitors."""

    def __init__(
        self,
        process: Process,
        peer_provider: PeerProvider,
        heartbeat_interval: float = 10.0,
        suppression: bool = False,
    ) -> None:
        super().__init__(process, "fd")
        self.peer_provider = peer_provider
        self.heartbeat_interval = heartbeat_interval
        #: Heartbeat suppression: skip the explicit heartbeat to peers we
        #: sent any datagram within the last ``heartbeat_interval`` ms.
        #: Off by default (the paper's constant stream); the new
        #: architecture stack turns it on.
        self.suppression = suppression
        self._last_heard: dict[str, float] = {}
        self._arrival_gaps: dict[str, deque[float]] = {}
        #: Estimator sampling state, separate from ``last_heard``: gaps
        #: are sampled at most once per (peer, hb-epoch) so tap refreshes
        #: from bursty application traffic cannot pollute the arrival
        #: statistics the adaptive timeouts are built on.
        self._last_sample_time: dict[str, float] = {}
        self._last_sample_epoch: dict[str, int] = {}
        self._incarnations: dict[str, int] = {}
        self._reincarnation_listeners: list[ReincarnationCallback] = []
        self._monitors: list[Monitor] = []
        self._hb_epoch = 0
        # Bound handles: one increment per datagram-scale event — the
        # dominant background work in long runs.
        counters = process.world.metrics.counters
        self._inc_heartbeats = counters.handle("fd.heartbeats_sent")
        self._inc_explicit = counters.handle("fd.explicit_hb")
        self._inc_suppressed = counters.handle("fd.suppressed")
        self._inc_tap = counters.handle("fd.tap_refreshes")
        self._inc_piggyback = counters.handle("fd.piggyback_samples")
        self.register_port(PORT, self._on_heartbeat)
        process.world.transport.register_liveness_sink(process, self._on_traffic)

    def start(self) -> None:
        self._beat()

    # ------------------------------------------------------------------
    # Client interface (Fig. 9: start_stop_monitor / suspect)
    # ------------------------------------------------------------------
    def monitor(
        self,
        peers: PeerProvider | list[str],
        timeout: float,
        on_suspect: SuspicionCallback | None = None,
        on_trust: SuspicionCallback | None = None,
    ) -> Monitor:
        """Create and start a monitor with its own timeout."""
        if isinstance(peers, list):
            fixed = list(peers)
            provider: PeerProvider = lambda: fixed
        else:
            provider = peers
        mon = Monitor(self, provider, timeout, on_suspect, on_trust)
        self._monitors.append(mon)
        return mon

    def last_heard(self, pid: str) -> float | None:
        return self._last_heard.get(pid)

    def incarnation_of(self, pid: str) -> int | None:
        """Highest incarnation heard from ``pid`` (None = never heard)."""
        return self._incarnations.get(pid)

    def current_hb_epoch(self) -> int:
        """The heartbeat epoch, bumped once per beat tick.  The reliable
        channel stamps it on outgoing datagrams so receivers can sample
        arrival gaps even when explicit heartbeats are suppressed."""
        return self._hb_epoch

    def on_reincarnation(self, listener: ReincarnationCallback) -> None:
        """Register ``listener(pid, incarnation)`` fired when liveness
        evidence from a peer carries a higher incarnation than previously
        seen — i.e. the peer crashed and recovered.  The monitoring
        component uses this to drop stale suspicion evidence instead of
        excluding the recovered process (Section 4.3 re-admission)."""
        self._reincarnation_listeners.append(listener)

    # ------------------------------------------------------------------
    # Heartbeat machinery
    # ------------------------------------------------------------------
    def _beat(self) -> None:
        self._hb_epoch += 1
        payload = (self.process.incarnation, self._hb_epoch)
        suppress_within = self.heartbeat_interval
        transport = self.world.transport
        now = self.now
        for peer in self.peer_provider():
            if peer == self.pid:
                continue
            if self.suppression:
                sent = transport.last_sent(self.pid, peer)
                if sent is not None and now - sent < suppress_within:
                    # The link is warm: our own traffic within the last
                    # period already proved our liveness to this peer.
                    self._inc_suppressed()
                    continue
            self._inc_heartbeats()
            self._inc_explicit()
            self.world.u_send(self.pid, peer, PORT, payload, layer="fd")
        for mon in self._monitors:
            mon._check()
        self.schedule(self.heartbeat_interval, self._beat)

    def arrival_gaps(self, pid: str) -> list[float]:
        """Recent heartbeat-epoch inter-arrival gaps (ms) for ``pid``."""
        return list(self._arrival_gaps.get(pid, ()))

    # ------------------------------------------------------------------
    # Liveness evidence (heartbeats, tap, piggybacked epochs)
    # ------------------------------------------------------------------
    def _note_incarnation(self, src: str, incarnation: int) -> bool:
        """Track ``src``'s incarnation; False fences out stale evidence.

        A fresh incarnation means the peer crashed and came back: gap
        statistics across the outage are meaningless, and everyone
        listening (monitoring) gets a chance to un-suspect it.  Evidence
        from a *lower* incarnation than already seen is a stale pre-crash
        datagram — it must never vouch for the recovered process.
        """
        known = self._incarnations.get(src)
        if known is None:
            self._incarnations[src] = incarnation
            return True
        if incarnation < known:
            return False
        if incarnation > known:
            self._incarnations[src] = incarnation
            self._arrival_gaps.pop(src, None)
            self._last_heard.pop(src, None)  # the outage gap is not a sample
            self._last_sample_time.pop(src, None)
            self._last_sample_epoch.pop(src, None)
            self.trace("reincarnated", peer=src, incarnation=incarnation)
            for listener in self._reincarnation_listeners:
                listener(src, incarnation)
        return True

    def _note_sample(self, src: str, epoch: int) -> None:
        """Record one arrival-gap sample, at most once per (peer, epoch)."""
        last_epoch = self._last_sample_epoch.get(src)
        if last_epoch is not None and epoch <= last_epoch:
            return
        self._last_sample_epoch[src] = epoch
        previous = self._last_sample_time.get(src)
        if previous is not None:
            self._arrival_gaps.setdefault(src, deque(maxlen=32)).append(
                self.now - previous
            )
        self._last_sample_time[src] = self.now

    def _on_heartbeat(self, src: str, payload: tuple[int, int]) -> None:
        incarnation, epoch = payload
        if not self._note_incarnation(src, incarnation):
            return
        self._note_sample(src, epoch)
        self._last_heard[src] = self.now
        for mon in self._monitors:
            mon._check()

    def _on_traffic(self, src: str, incarnation: int, port: str) -> None:
        """Transport liveness tap: any delivered datagram refreshes
        ``last_heard`` (explicit heartbeats take the full path above)."""
        if port == PORT or src == self.pid:
            return
        if not self._note_incarnation(src, incarnation):
            return
        self._last_heard[src] = self.now
        self._inc_tap()
        # Targeted re-check: only monitors currently suspecting this peer
        # need to revise — a full _check per datagram would be O(n) on
        # the hot path for nothing.
        for mon in self._monitors:
            if src in mon.suspects:
                mon._check()

    def note_piggyback_sample(self, src: str, incarnation: int, epoch: int) -> None:
        """Feed an hb-epoch header carried by a reliable-channel datagram.

        The first datagram of each of the sender's heartbeat periods acts
        exactly like a heartbeat arrival for the gap estimator, so the
        adaptive timeouts keep converging while explicit heartbeats are
        suppressed.
        """
        if src == self.pid:
            return
        if not self._note_incarnation(src, incarnation):
            return
        self._inc_piggyback()
        self._note_sample(src, epoch)
        self._last_heard[src] = self.now
