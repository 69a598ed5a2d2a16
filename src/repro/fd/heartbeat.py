"""Heartbeat failure detector with per-client monitors.

A single failure-detection component per process records when each peer
was last heard and broadcasts heartbeats on the *unreliable* transport.
Clients (consensus, the monitoring component, membership layers of the
traditional stacks) each create a :class:`Monitor` with their own timeout
— this is the ``start_stop_monitor`` interface of Fig. 9 and the basis of
Section 3.3.2: consensus can use a small timeout (seconds) while the
monitoring component uses a large one (minutes), over the same liveness
evidence.

**One evidence path.**  Liveness evidence reaches the detector in one
place, the **liveness tap** it registers on the transport: every
datagram delivered from a peer — an rc segment, rbcast gossip, a gbcast
ack, a consensus round, an explicit heartbeat — refreshes ``last_heard``
(§3.3.2: *any* received message is liveness evidence).  The transport
stamps the sender's incarnation on every datagram and hands it to the
tap behind its own incarnation fence, so a stale pre-crash datagram can
never vouch for a recovered process; the tap re-checks anyway for
directly injected traffic.  Nothing else carries liveness: a heartbeat
is an empty datagram on port ``fd.hb`` whose whole effect is the tap
refresh it causes, and no protocol header has a liveness field.

Explicit heartbeats are the *idle-link fallback*: with ``suppression``
on, a heartbeat goes to a peer only when nothing at all has been handed
to the transport for it for a whole ``heartbeat_interval`` — our
outbound traffic already proves our liveness to them.
``heartbeat_interval`` thus means *the longest silence the sender allows
on a link*, and it is kept by a deadline, not a tick: one one-shot timer
per process, armed for the earliest per-peer deadline and re-armed
lazily (a deadline is looked at again only once reached; traffic sent
meanwhile has moved it, which counts as one ``fd.suppressed``).
Deadlines within ``KEEPALIVE_SLACK`` of an interval are served by the
same firing, so idle links fall into step instead of waking the process
once each.  Under load the O(n) broadcast collapses to sends on idle
links only; a crashed peer's links go idle immediately (it sends
nothing), so time-to-suspect is unchanged.  With suppression off the
deadline is the last heartbeat plus one interval — the same code sends
the traditional constant stream.  (Skipping a periodic beat whenever
anything went out within the last interval would guarantee only *two*
intervals of silence while still paying one datagram per interval on an
idle link.)

**Monitors run on expiry timers.**  A monitor does not poll: it scans
its peer set, and arms one one-shot timer for the earliest
``max(last_heard, member_since) + timeout`` among the peers it still
trusts — capped one timeout ahead, because a peer that *enters* the set
is first seen by a scan.  A crash is therefore suspected exactly one
timeout after the victim was last heard, not at the next tick after.
Fresh evidence only moves expiries later, so the armed timer is left
alone (it fires early, finds nothing expired and re-arms); evidence from
a peer *currently suspected* re-scans at once.  The detector keeps what
these scans read — ``last_heard``, incarnations, keep-alive deadlines —
and nothing else: arrival-gap statistics belong to the one monitor that
reads them (``repro.fd.adaptive``).

**One suspicion object.**  A monitor is what a layer is *built with*:
it reads ``monitor.suspects`` and subscribes to the edges
(:meth:`Monitor.subscribe`).  Any number of layers may subscribe to one
monitor; an edge reaches them within one event, **top-down** — last
subscribed, first told.  A stack is built bottom-up, so what orders
(generic broadcast, consensus) moves before what repairs (reliable
broadcast's flood), whose bulk would otherwise sit in front of the
ordering messages on the same FIFO links.

The detector is unreliable in the sense of Chandra–Toueg [10]: it can
suspect correct processes (small timeouts, message loss, partitions) and
revises its output when evidence arrives — the behaviour assumed of
◇S.  Nothing emulates a perfect detector here; the *traditional* stacks
obtain P-like behaviour the way the paper describes: by killing/excluding
suspected processes (Section 3.1.1).  They are built with ``suppression``
off, preserving the paper's constant heartbeat stream for comparison.
"""

from __future__ import annotations

from typing import Callable

from repro.sim.process import Component, Process
from repro.sim.scheduler import DUE_SLACK, Timer

PORT = "fd.hb"

#: Share of a heartbeat interval by which a heartbeat may go out early so
#: that one firing of the keep-alive timer serves neighbouring deadlines:
#: idle links fall into step instead of waking the process once each.
#: The price is a heartbeat that traffic might still have suppressed; ⅛
#: is the knee (0 / ¹⁄₁₆ / ⅛ / ¼ read 69 / 60 / 52 / 41 keep-alive firings
#: against 71.9 / 72.4 / 73.0 / 75.4 heartbeats per op on ``bulk_ring``).
KEEPALIVE_SLACK = 1 / 8

PeerProvider = Callable[[], list[str]]
SuspicionCallback = Callable[[str], None]
ReincarnationCallback = Callable[[str, int], None]


class Monitor:
    """One client's view of the failure detector.

    ``suspects`` is the current set of suspected peers; edge listeners
    (``on_suspect`` / ``on_trust``, or :meth:`subscribe`) fire on
    transitions.  Monitors can be stopped (Fig. 9's ``start_stop_monitor``).
    """

    def __init__(
        self,
        detector: "HeartbeatFailureDetector",
        peers: PeerProvider | list[str],
        timeout: float,
        on_suspect: SuspicionCallback | None = None,
        on_trust: SuspicionCallback | None = None,
    ) -> None:
        self._detector = detector
        fixed = list(peers) if isinstance(peers, list) else None
        self._peers: PeerProvider = peers if fixed is None else lambda: fixed
        self.timeout = timeout
        self._suspect_listeners: list[SuspicionCallback] = []
        self._trust_listeners: list[SuspicionCallback] = []
        self.subscribe(on_suspect, on_trust)
        self.suspects: set[str] = set()
        self.active = True
        #: When each peer (re-)entered the monitored set.  A peer that
        #: joins (or a recovered process re-admitted to the view) gets a
        #: full timeout of grace from that moment — without this, a
        #: stale ``last_heard`` from before its crash would make the
        #: monitor re-suspect it the instant it re-enters the view.
        self._member_since: dict[str, float] = {}
        #: The one-shot expiry timer.  The first scan is an event rather
        #: than a call: the peer provider may not resolve yet (the stack
        #: builds its membership after its monitors).
        self._timer: Timer | None = None
        self._arm(detector.now)
        detector._monitors.append(self)  # fed its evidence from now on

    def subscribe(
        self,
        on_suspect: SuspicionCallback | None = None,
        on_trust: SuspicionCallback | None = None,
    ) -> None:
        """Add edge listeners.  Every listener sees every later edge,
        inside the event that found it, the latest subscriber first."""
        if on_suspect is not None:
            self._suspect_listeners.insert(0, on_suspect)
        if on_trust is not None:
            self._trust_listeners.insert(0, on_trust)

    def stop(self) -> None:
        self.active = False
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def restart(self) -> None:
        self.active = True
        self.suspects.clear()
        self._member_since.clear()
        self._check()

    def suspected(self, pid: str) -> bool:
        return pid in self.suspects

    def timeout_for(self, peer: str) -> float:
        """Current timeout applied to ``peer`` (constant here; adaptive
        monitors override this)."""
        return self.timeout

    def _heard(self, peer: str) -> None:
        """Evidence from ``peer`` arrived.  A monitor suspecting it revises
        at once; otherwise its timer merely fires early and re-arms — a
        scan per datagram would be O(n) on the hot path for nothing."""
        if peer in self.suspects:
            self._check()

    def _arm(self, when: float) -> None:
        """Scan at ``when`` — unless a scan is due sooner anyway: one that
        comes early finds nothing expired and re-arms for what is."""
        timer = self._timer
        if timer is not None and timer.active:
            if timer.when <= when:
                return
            timer.cancel()
        delay = max(0.0, when - self._detector.now)
        self._timer = self._detector.schedule(delay, self._check)

    def _check(self) -> None:
        """Scan the monitored set: suspect every peer whose timeout has run
        out since it was last heard (or entered the set), trust every
        suspect heard since, and arm the timer for the earliest expiry
        left — at most one timeout ahead, because a peer that *enters*
        the set is first seen by a scan."""
        if not self.active:
            return
        now = self._detector.now
        peers = set(self._peers())
        peers.discard(self._detector.pid)
        # Peers that left the monitored set are forgotten — including
        # their membership baseline, so a later re-entry (rejoin after
        # recovery) starts a fresh grace period.
        self.suspects &= peers
        for gone in [p for p in self._member_since if p not in peers]:
            del self._member_since[gone]
        wake = now + self.timeout
        for peer in sorted(peers):
            since = self._member_since.setdefault(peer, now)
            last = self._detector.last_heard(peer)
            if last is None or last < since:
                last = since
            expiry = last + self.timeout_for(peer)
            if expiry > now + DUE_SLACK:
                wake = min(wake, expiry)
                if peer in self.suspects:
                    self.suspects.discard(peer)
                    self._detector.trace("trust", peer=peer, timeout=self.timeout)
                    for listener in self._trust_listeners:
                        listener(peer)
            elif peer not in self.suspects:
                self.suspects.add(peer)
                self._detector.trace("suspect", peer=peer, timeout=self.timeout)
                for listener in self._suspect_listeners:
                    listener(peer)
        self._arm(wake)


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
        self._incarnations: dict[str, int] = {}
        self._reincarnation_listeners: list[ReincarnationCallback] = []
        self._monitors: list[Monitor] = []
        #: When the next heartbeat to each peer falls due (see ``_keepalive``).
        self._deadlines: dict[str, float] = {}
        # Bound handles: one increment per datagram-scale event — the
        # dominant background work in long runs.
        counters = process.world.metrics.counters
        self._inc_explicit = counters.handle("fd.explicit_hb")
        self._inc_suppressed = counters.handle("fd.suppressed")
        self._inc_tap = counters.handle("fd.tap_refreshes")
        # A heartbeat has no content: the tap has already read it.
        self.register_port(PORT, lambda _src, _payload: None)
        process.world.transport.register_liveness_sink(process, self._on_traffic)

    def start(self) -> None:
        self._keepalive()

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
        return Monitor(self, peers, timeout, on_suspect, on_trust)

    def last_heard(self, pid: str) -> float | None:
        return self._last_heard.get(pid)

    def incarnation_of(self, pid: str) -> int | None:
        """Highest incarnation heard from ``pid`` (None = never heard)."""
        return self._incarnations.get(pid)

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
    def _keepalive(self) -> None:
        """Send the heartbeats that have fallen due (or will within the
        slack) and sleep until the next deadline.  A deadline is looked at
        again only once reached: traffic sent meanwhile has moved it,
        which counts as one suppressed heartbeat."""
        now = self.now
        interval = self.heartbeat_interval
        due_by = now + interval * KEEPALIVE_SLACK + DUE_SLACK
        transport = self.world.transport
        deadlines: dict[str, float] = {}
        for peer in self.peer_provider():
            if peer == self.pid:
                continue
            deadline = self._deadlines.get(peer, now)  # a new peer is owed one at once
            if deadline <= due_by:
                sent = transport.last_sent(self.pid, peer) if self.suppression else None
                if sent is not None and sent + interval > due_by:
                    # Our own traffic since proved our liveness to this peer.
                    self._inc_suppressed()
                    deadline = sent + interval
                else:
                    self._inc_explicit()
                    self.world.u_send(self.pid, peer, PORT, None, layer="fd")
                    deadline = now + interval
            deadlines[peer] = deadline
        # Peers that left the set are forgotten; with nobody to talk to,
        # look for peers again one interval on.
        self._deadlines = deadlines
        wake = min(deadlines.values(), default=now + interval)
        self.schedule(max(0.0, wake - now), self._keepalive)

    # ------------------------------------------------------------------
    # Liveness evidence: the transport tap, and nothing else
    # ------------------------------------------------------------------
    def _on_traffic(self, src: str, incarnation: int, port: str) -> None:
        """Transport liveness tap: any delivered datagram, an explicit
        heartbeat included, refreshes ``last_heard``.  A higher incarnation
        means the peer crashed and came back: whoever listens (monitoring,
        a gap estimator) hears of it first.  A *lower* one is a stale
        pre-crash datagram — it must never vouch for the recovered process.
        """
        if src == self.pid:
            return
        known = self._incarnations.get(src)
        if known != incarnation:
            if known is not None and incarnation < known:
                return
            self._incarnations[src] = incarnation
            if known is not None:
                self.trace("reincarnated", peer=src, incarnation=incarnation)
                for listener in self._reincarnation_listeners:
                    listener(src, incarnation)
        self._last_heard[src] = self.now
        if port != PORT:
            self._inc_tap()
        for mon in self._monitors:
            mon._heard(src)
