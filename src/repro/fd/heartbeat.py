"""Heartbeat failure detector with per-client monitors.

A single failure-detection component per process records when each peer
was last heard and broadcasts heartbeats on the *unreliable* transport.
Clients (consensus, the monitoring component, membership layers of the
traditional stacks) each read a :class:`Monitor` with their own timeout
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
is a datagram on port ``fd.hb`` whose liveness is the tap refresh it
causes — its one byte is a question, not evidence (R4 below) — and no
protocol header has a liveness field.  A watcher's *report* (R5) is not
evidence either: it is a verdict about third parties, adopted or ignored
as a whole; the datagram it rides vouches for its sender like any other
and for nobody it names.

Explicit heartbeats are the *idle-link fallback*: a detector built with
the process's reliable channel (*suppression*) sends a heartbeat to a
peer only when nothing at all has been handed to the transport for it
for a whole ``heartbeat_interval`` — our outbound traffic already proves
our liveness to them (what traffic cannot do is *ask*: see
``_must_ask`` for the one heartbeat that goes out regardless).  Even
then the keep-alive goes out as whatever the channel owes that peer —
its buffered segments, else the ACK it is holding
(:meth:`ReliableChannel.flush_toward`) — and as a heartbeat only if it
owes nothing: an owed ACK and a due keep-alive are one datagram, not
two.  ``heartbeat_interval`` thus means *the longest
silence the sender allows on a link somebody reads at the small
timeout* (R3 below gives the others), and it is kept by a deadline, not
a tick: one one-shot timer per process, armed for the earliest per-peer deadline and re-armed
lazily (a deadline is looked at again only once reached; traffic sent
meanwhile has moved it, which counts as one ``fd.suppressed``).
Deadlines within ``KEEPALIVE_SLACK`` of an interval are served by the
same firing, so idle links fall into step instead of waking the process
once each.  Under load the O(n) broadcast collapses to sends on idle
links only; a crashed peer's links go idle immediately (it sends
nothing), so time-to-suspect is unchanged.  Without a channel the
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
timeout after the victim was last heard, not at the next tick after
(on a link kept warm more slowly than ``heartbeat_interval``, one
timeout after the keep-alive that would have come next: ``staleness``).
Fresh evidence only moves expiries later, so the armed timer is left
alone (it fires early, finds nothing expired and re-arms); evidence from
a peer *currently suspected* re-scans at once.  The detector keeps what
these scans read — ``last_heard``, incarnations, keep-alive deadlines —
and nothing else.

**One suspicion object.**  A monitor is what a layer is *built with*:
it reads ``monitor.suspects`` and subscribes to the edges
(:meth:`Monitor.subscribe`).  Any number of layers may subscribe to one
monitor; an edge reaches them within one event, **top-down** — last
subscribed, first told.  A stack is built bottom-up, so what orders
(generic broadcast, consensus) moves before what repairs (reliable
broadcast's NACKs), whose answers would otherwise sit in front of the
ordering messages on the same FIFO links.

**Who watches whom.**  A plain :class:`Monitor` watches every peer
first-hand; the traditional stacks build nothing else.  The new stack's
small-timeout monitor is a :class:`StarMonitor`: only one member's quick
suspicion is waited for by anything — the view's first unsuspected one,
generic broadcast's closer, consensus's ``coordinator(0)``, the ring's
head — so the small timeout is paid on the 2(n−1) links to and from it
instead of on all n(n−1).  Five rules, each stated where it is code:
:func:`watcher` (R1), :class:`StarMonitor` (R2 first-hand watching, R5
reports), ``_cadence_of`` (R3 cadence follows the readers; the exclusion
monitor stays a first-hand mesh at its own) and ``_on_heartbeat`` /
``_must_ask`` (R4 answer in kind).  DESIGN.md §8 has the ◇S argument.

The detector is unreliable in the sense of Chandra–Toueg [10]: it can
suspect correct processes (small timeouts, message loss, partitions) and
revises its output when evidence arrives — the behaviour assumed of
◇S.  Nothing emulates a perfect detector here; the *traditional* stacks
obtain P-like behaviour the way the paper describes: by killing/excluding
suspected processes (Section 3.1.1).  Their detectors are built without
a channel, preserving the paper's constant heartbeat stream for
comparison.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Collection

from repro.net.overlay import watcher
from repro.sim.process import Component, Process
from repro.sim.scheduler import DUE_SLACK, Timer

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.net.reliable import ReliableChannel

PORT = "fd.hb"
REPORT_PORT = "fd.report"

#: Share of a heartbeat interval by which a heartbeat may go out early so
#: that one firing of the keep-alive timer serves neighbouring deadlines:
#: idle links fall into step instead of waking the process once each.
#: The price is a heartbeat that traffic might still have suppressed; ⅛
#: is the knee (0 / ¹⁄₁₆ / ⅛ / ¼ read 69 / 60 / 52 / 41 keep-alive firings
#: against 71.9 / 72.4 / 73.0 / 75.4 heartbeats per op on ``bulk_ring``).
KEEPALIVE_SLACK = 1 / 8

#: Keep-alives a reader's timeout must span on a link only it reads: two
#: consecutive losses plus the link's delay still fit inside the timeout
#: (the derivation of the new stack's 60 ÷ 4 = 15 ms, applied to whoever
#: reads a link the small-timeout monitor does not).
SILENCES_PER_TIMEOUT = 4

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
        #: When each peer (re-)entered the watched set.  A peer that
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
        detector._read_by(detector._monitors + [self])  # fed its evidence from now on

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
        """Stop reporting — and stop being a reader: the detector no
        longer feeds this monitor nor keeps a link warm on its account."""
        self.active = False
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        detector = self._detector
        detector._read_by([m for m in detector._monitors if m is not self])

    def restart(self) -> None:
        self.active = True
        self.suspects.clear()
        self._member_since.clear()
        detector = self._detector
        if self not in detector._monitors:
            detector._read_by(detector._monitors + [self])
        self._check()

    def suspected(self, pid: str) -> bool:
        return pid in self.suspects

    def reads(self, peer: str) -> bool:
        """Whether this monitor needs the link from ``peer`` kept warm at
        its own timeout (what we owe ``peer`` in return, see
        :meth:`HeartbeatFailureDetector._cadence_of`): it watches every
        peer first-hand."""
        return True

    def asks(self, peer: str) -> bool:
        """Whether ``peer`` must be *told* it is watched (R4): not by a
        monitor that watches everybody — every detector assumes that."""
        return False

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

    def _edge(self, suspect: bool, peer: str, **via: str) -> None:
        """One transition of ``peer``: the set, then everybody who reads it."""
        if suspect:
            self.suspects.add(peer)
        else:
            self.suspects.discard(peer)
        self._announce(suspect, peer, **via)

    def _announce(self, suspect: bool, peer: str, **via: str) -> None:
        """The trace, the listeners."""
        self._detector.trace(
            "suspect" if suspect else "trust", peer=peer, timeout=self.timeout, **via
        )
        for listener in self._suspect_listeners if suspect else self._trust_listeners:
            listener(peer)

    def _check(self) -> None:
        """Scan the monitored set; peers that left it are forgotten."""
        if not self.active:
            return
        peers = set(self._peers())
        peers.discard(self._detector.pid)
        self.suspects &= peers
        self._scan(peers)

    def _scan(self, watched: set[str]) -> None:
        """Suspect every peer of ``watched`` whose timeout has run out since
        it was last heard (or entered the set), trust every suspect heard
        since, and arm the timer for the earliest expiry left — at most
        one timeout ahead, because a peer that *enters* the set is first
        seen by a scan."""
        now = self._detector.now
        # Peers that left are forgotten — their baseline too, so a later
        # re-entry (rejoin after recovery) starts a fresh grace period.
        for gone in [p for p in self._member_since if p not in watched]:
            del self._member_since[gone]
        wake = now + self.timeout
        for peer in sorted(watched):
            since = self._member_since.setdefault(peer, now)
            last = self._detector.last_heard(peer)
            if last is None or last < since:
                last = since
            expiry = last + self.timeout + self._detector.staleness(peer)
            if expiry > now + DUE_SLACK:
                wake = min(wake, expiry)
                if peer in self.suspects:
                    self._edge(False, peer)
            elif peer not in self.suspects:
                self._edge(True, peer)
        self._arm(wake)


class StarMonitor(Monitor):
    """The small-timeout monitor of the new stack: everybody watches the
    one who orders, it watches everybody, and tells them what it sees.

    (R2) Only the :func:`watcher` is timed out first-hand — every peer,
    where this process is its own watcher.  A peer that enters that set
    gets a timeout of grace unless it is suspected already; a suspicion
    ends on evidence only — a datagram from the suspect, or the watcher's
    report no longer naming it — never because the suspect left the set.
    (R5) The process that regards itself as watcher sends its whole
    suspect set, incarnation-stamped, to every member it trusts over the
    reliable channel: on each of its own edges, on taking over, and once
    more on the edge that ends its turn.  A member adopts a report from
    the process it currently regards as watcher and from nobody else
    (one that came too early for that is kept for a timeout, see
    ``_on_report``), and keeps what it adopted across a change of
    watcher.  A report is a
    *verdict*, not liveness evidence: it refreshes no ``last_heard``.
    """

    def __init__(
        self,
        detector: "HeartbeatFailureDetector",
        peers: PeerProvider | list[str],
        timeout: float,
        channel: "ReliableChannel",
    ) -> None:
        super().__init__(detector, peers, timeout)
        #: The peers this monitor times out itself (R2).
        self.first_hand: set[str] = set()
        #: The suspects ahead of the watcher.  Any of them that is alive
        #: after all regards itself as watcher and is timing *us* out, so
        #: the link stays warm: a one-way cut must not become mutual.
        self._senior: set[str] = set()
        self._channel = channel
        self._reporting = False  # this process regards itself as the watcher
        #: The latest report ignored on arrival, its sender, and until when
        #: it may still be adopted (see ``_on_report``).
        self._early: tuple[str, tuple[tuple[str, int], ...], float] | None = None
        self._inc = detector.world.metrics.counters.inc
        detector.register_port(REPORT_PORT, self._on_report)

    @property
    def watcher(self) -> str | None:
        return watcher(self._peers(), self.suspects)

    def reads(self, peer: str) -> bool:
        return peer in self.first_hand or peer in self._senior

    def asks(self, peer: str) -> bool:
        return peer in self.first_hand

    def restart(self) -> None:
        self.first_hand, self._senior, self._reporting = set(), set(), False
        self._early = None
        super().restart()

    def _heard(self, peer: str) -> None:
        if peer in self.suspects:
            self._check(heard=peer)

    def _check(self, heard: str | None = None) -> None:
        if not self.active:
            return
        detector = self._detector
        me = detector.pid
        members = self._peers()
        peers = set(members)
        peers.discard(me)
        self.suspects &= peers
        if heard is not None and heard not in self.first_hand:
            self._edge(False, heard)  # second-hand, or left behind: heard is trusted
        entered: set[str] = set()
        while True:
            first = watcher(members, self.suspects)
            first_hand = peers if first == me else peers & {first}
            senior = peers if first is None else set(members[: members.index(first)])
            entering = first_hand - self.first_hand
            for peer in entering & self.suspects:
                self._member_since[peer] = float("-inf")  # no grace for a suspect
            entered |= entering
            if (first_hand, senior) != (self.first_hand, self._senior):
                self.first_hand, self._senior = first_hand, senior
                detector._cadence.clear()  # ahead of the scan, which reads it
            self._scan(first_hand)
            if watcher(members, self.suspects) == first:
                break
        if first == me and not self._reporting and self.suspects:
            self._report(members)  # took over without an edge: a view change
        self._reporting = first == me
        if entered:
            detector._hurry(entered)  # (R4) say so now, not a slow interval on
        early = self._early
        if early is not None and early[0] == first:
            self._early = None
            if early[2] > detector.now:
                self._adopt(first, early[1])  # it took over before we noticed

    def _announce(self, suspect: bool, peer: str, **via: str) -> None:
        """An edge at a process that is its own watcher before or after it
        goes out as a report *ahead of* the listeners: what they send —
        reliable broadcast's repair requests — would otherwise sit
        in front of it on the same FIFO channels."""
        members = self._peers()
        reporting = watcher(members, self.suspects) == self._detector.pid
        if reporting or self._reporting:
            self._report(members)
        self._reporting = reporting
        super()._announce(suspect, peer, **via)

    def _report(self, members: list[str]) -> None:
        detector = self._detector
        entries = tuple(
            (peer, detector.incarnation_of(peer) or 0) for peer in sorted(self.suspects)
        )
        trusted = [m for m in members if m != detector.pid and m not in self.suspects]
        self._inc("fd.reports_sent", len(trusted))
        self._channel.send_to_all(trusted, REPORT_PORT, entries)

    def _on_report(self, src: str, entries: tuple[tuple[str, int], ...]) -> None:
        """Adopt the watcher's report; ignore anybody else's — but keep
        the latest that names every member ahead of its sender for one
        timeout.  That sender regards itself as watcher; if it does
        because it noticed the old one's death a few milliseconds before
        this process will, nothing would ever repeat what it said on
        taking over (``_check`` adopts it on turning to the sender)."""
        if not self.active:
            return
        members = self._peers()
        if src == watcher(members, self.suspects):
            self._adopt(src, entries)
            return
        self._inc("fd.reports_ignored")
        if src in members and {peer for peer, _ in entries}.issuperset(
            members[: members.index(src)]
        ):
            self._early = (src, entries, self._detector.now + self.timeout)

    def _adopt(self, src: str, entries: tuple[tuple[str, int], ...]) -> None:
        detector = self._detector
        members = self._peers()
        self._early = None  # whatever was kept, this verdict is newer
        reported = set()
        for peer, incarnation in entries:
            if incarnation < (detector.incarnation_of(peer) or 0):
                # A verdict on a dead incarnation: the peer recovered past it.
                self._inc("fd.stale_reports_dropped")
            elif peer != detector.pid and peer in members:
                reported.add(peer)
        self._inc("fd.reports_adopted")
        for peer in sorted(self.suspects - reported):
            self._edge(False, peer, via=src)
        for peer in sorted(reported - self.suspects):
            self._edge(True, peer, via=src)
        self._check()  # a retraction may have changed the watcher


class HeartbeatFailureDetector(Component):
    """Shared liveness evidence + any number of per-client monitors."""

    def __init__(
        self,
        process: Process,
        peer_provider: PeerProvider,
        heartbeat_interval: float = 10.0,
        channel: "ReliableChannel | None" = None,
    ) -> None:
        super().__init__(process, "fd")
        self.peer_provider = peer_provider
        self.heartbeat_interval = heartbeat_interval
        #: Heartbeat suppression: with a channel, the explicit heartbeat to
        #: a peer is skipped while our datagrams keep the link warm, and a
        #: due one goes out as whatever the channel owes that peer.  None
        #: by default (the paper's constant stream); the new architecture
        #: stack passes its own.
        self._channel = channel
        self._last_heard: dict[str, float] = {}
        self._incarnations: dict[str, int] = {}
        self._reincarnation_listeners: list[ReincarnationCallback] = []
        self._monitors: list[Monitor] = []
        self._small_timeout = 0.0  # of the fastest monitor held (see ``_read_by``)
        self._cadence: dict[str, tuple[float, bool]] = {}  # see ``_cadence_of``
        #: When the next heartbeat to each peer falls due (see ``_keepalive``).
        self._deadlines: dict[str, float] = {}
        self._timer: Timer | None = None
        #: (R4) What each peer's latest heartbeat said — whether it watches
        #: us first-hand — and until when that holds: one small timeout.
        self._said: dict[str, tuple[bool, float]] = {}
        # Bound handles: one increment per datagram-scale event — the
        # dominant background work in long runs.
        counters = process.world.metrics.counters
        self._inc_explicit = counters.handle("fd.explicit_hb")
        self._inc_suppressed = counters.handle("fd.suppressed")
        self._inc_tap = counters.handle("fd.tap_refreshes")
        self._inc_answered = counters.handle("fd.answered_in_kind")
        self.register_port(PORT, self._on_heartbeat)
        process.world.transport.register_liveness_sink(process, self._on_traffic)

    def start(self) -> None:
        # Whoever chooses whom to watch chooses now: the first heartbeats say so.
        for monitor in self._monitors:
            monitor._check()
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

    def _read_by(self, monitors: list[Monitor]) -> None:
        """The monitors that are fed evidence and hold the links' cadence.
        Always a new list: the tap may be iterating the old one."""
        self._monitors = monitors
        self._small_timeout = min((m.timeout for m in monitors), default=0.0)
        self._cadence.clear()

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

    def staleness(self, peer: str) -> float:
        """How much older than on a fast link ``peer``'s last datagram may
        be when it falls silent.  A link kept warm every 500 ms says of a
        crash only that it happened within 500 ms of the last keep-alive,
        so a reader counts its timeout from the keep-alive that *would*
        have come: a timeout still means that long a silence of a live
        link, and the exclusion monitor never excludes earlier after a
        crash than it did on the mesh.  (Watching is mutual: the silence
        ``peer`` allows toward us is the one we allow toward it.  Zero
        wherever the small-timeout monitor reads, and in every
        traditional stack.)"""
        return self._cadence_of(peer)[0] - self.heartbeat_interval

    def _told(self, peer: str, asks: bool) -> bool:
        """Whether ``peer``'s latest heartbeat said ``asks`` and still holds."""
        said = self._said.get(peer)
        return said is not None and said[0] is asks and said[1] > self.now

    def _interval(self, peer: str) -> float:
        """The longest silence ``peer`` is owed: what our own readers make
        it, or ``heartbeat_interval`` while it has asked (R4)."""
        return self._owed(peer)[0]

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

    def _hurry(self, peers: Collection[str]) -> None:
        """The silence owed to ``peers`` just shrank: their heartbeat is due now."""
        for peer in peers:
            self._deadlines[peer] = self.now
        if self._timer is not None:
            self._timer.cancel()
            self._keepalive()

    def _on_heartbeat(self, src: str, asks: bool) -> None:
        """A heartbeat's liveness was read by the tap; its one flag says
        whether the sender watches *us* first-hand (R4).  If so it is owed
        the fast cadence for one small timeout from now, whoever we think
        the watcher is: two processes that disagree about that pay
        datagrams, never sight."""
        if not self._monitors:
            return  # nothing to ask for, and every link is fast already
        slow = asks and self._interval(src) > self.heartbeat_interval
        self._said[src] = (asks, self.now + self._small_timeout)
        if slow:
            self._inc_answered()
            self._hurry((src,))

    # ------------------------------------------------------------------
    # Liveness evidence: the transport tap, and nothing else
    # ------------------------------------------------------------------
    def _on_traffic(self, src: str, incarnation: int, port: str) -> None:
        """Transport liveness tap: any delivered datagram, an explicit
        heartbeat included, refreshes ``last_heard``.  A higher incarnation
        means the peer crashed and came back: whoever listens (monitoring)
        hears of it first.  A *lower* one is a stale pre-crash datagram —
        it must never vouch for the recovered process.
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
