"""Heartbeat failure detector with per-client monitors.

A single failure-detection component per process records when each peer
was last heard and broadcasts heartbeats on the *unreliable* transport.
Clients (consensus, the monitoring component, membership layers of the
traditional stacks) each read a :class:`Monitor` with their own timeout
— the start half of Fig. 9's ``start_stop_monitor`` interface (a monitor
lives as long as the stack that built it) and the basis of Section
3.3.2: consensus can use a small timeout (seconds) while the monitoring
component uses a large one (minutes), over the same liveness evidence.

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
``_keepalive`` for the one heartbeat that goes out regardless).  Even
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
these scans and its keep-alive pass read — ``last_heard``, incarnations,
cadences, keep-alive deadlines, what each peer's heartbeat said — in one
record per peer, and nothing else: the tap and the pass read each peer's
record once.

**One suspicion object.**  A monitor is what a layer is *built with*:
it reads ``monitor.suspects`` and subscribes to the suspicions
(:meth:`Monitor.subscribe`).  Any number of layers may subscribe to one
monitor; a suspicion reaches them within one event, **top-down** — last
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
reports), ``_cadence`` (R3 cadence follows the readers; the exclusion
monitor stays a first-hand mesh at its own) and ``_on_heartbeat`` /
``_keepalive`` (R4 answer in kind).  DESIGN.md §8 has the ◇S argument.

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
from repro.net.wire import wire_size
from repro.sim.process import Component, Process
from repro.sim.scheduler import DUE_SLACK, Timer

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.net.reliable import ReliableChannel
    from repro.net.transport import Route

PORT = "fd.hb"
REPORT_PORT = "fd.report"
#: Wire size of a heartbeat, whose payload is one flag (see ``_keepalive``).
HEARTBEAT_BYTES = wire_size(False)

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

    ``suspects`` is the current set of suspected peers; listeners added
    with :meth:`subscribe` hear each suspicion edge.  A trust edge updates
    ``suspects`` and the trace and tells nobody: who needs it reads the set.
    """

    def __init__(
        self,
        detector: "HeartbeatFailureDetector",
        peers: PeerProvider | list[str],
        timeout: float,
    ) -> None:
        self._detector = detector
        fixed = list(peers) if isinstance(peers, list) else None
        self._peers: PeerProvider = peers if fixed is None else lambda: fixed
        self.timeout = timeout
        self._suspect_listeners: list[SuspicionCallback] = []
        self.suspects: set[str] = set()
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
        detector._read_by(self)  # fed its evidence from now on

    def subscribe(self, on_suspect: SuspicionCallback) -> None:
        """Add a suspicion listener.  Every listener sees every later
        suspicion, inside the event that found it, the latest subscriber
        first."""
        self._suspect_listeners.insert(0, on_suspect)

    def suspected(self, pid: str) -> bool:
        return pid in self.suspects

    def reads(self, peer: str) -> bool:
        """Whether this monitor needs the link from ``peer`` kept warm at
        its own timeout (what we owe ``peer`` in return, see
        :meth:`HeartbeatFailureDetector._cadence`): it watches every
        peer first-hand."""
        return True

    def asks(self, peer: str) -> bool:
        """Whether ``peer`` must be *told* it is watched (R4): not by a
        monitor that watches everybody — every detector assumes that."""
        return False

    def _heard(self, peer: str) -> None:
        """Evidence from ``peer``, whom this monitor suspects, arrived:
        revise at once.  The tap calls this for suspects only; evidence
        from a trusted peer merely makes the timer fire early and re-arm
        — a scan per datagram would be O(n) on the hot path for nothing."""
        self._check()

    def _arm(self, when: float) -> None:
        """Scan at ``when`` — unless a scan is due sooner anyway: one that
        comes early finds nothing expired and re-arms for what is."""
        timer = self._timer
        if timer is not None and timer.active:
            if timer.when <= when:
                return
            timer.cancel()
        detector = self._detector
        delay = max(0.0, when - detector._scheduler._now)
        self._timer = detector.schedule(delay, self._expire)

    def _expire(self) -> None:
        """The expiry timer: a scan."""
        self._check()

    def _edge(self, suspect: bool, peer: str, **via: str) -> None:
        """One transition of ``peer``: the set, then everybody who reads it."""
        if suspect:
            self.suspects.add(peer)
        else:
            self.suspects.discard(peer)
        self._announce(suspect, peer, **via)

    def _announce(self, suspect: bool, peer: str, **via: str) -> None:
        """The trace, and on a suspicion the listeners."""
        self._detector.trace(
            "suspect" if suspect else "trust", peer=peer, timeout=self.timeout, **via
        )
        if suspect:
            for listener in self._suspect_listeners:
                listener(peer)

    def _check(self) -> None:
        """Scan the monitored set; peers that left it are forgotten."""
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
        #: The member list the last completed ``_check`` read (see ``_expire``).
        self._checked: list[str] | None = None
        self._inc = detector.world.metrics.counters.inc
        detector.register_port(REPORT_PORT, self._on_report)

    @property
    def watcher(self) -> str | None:
        return watcher(self._peers(), self.suspects)

    def reads(self, peer: str) -> bool:
        return peer in self.first_hand or peer in self._senior

    def asks(self, peer: str) -> bool:
        return peer in self.first_hand

    def _heard(self, peer: str) -> None:
        self._check(heard=peer)

    def _expire(self) -> None:
        """The expiry timer, without the rescan while nothing ``_check``
        derives from has moved since it last ran — the member list is the
        same object (one per view) and nobody is suspected: the watcher,
        ``first_hand`` and every baseline are as they were, so a scan
        could only re-arm, or suspect a first-hand peer, which is left to
        ``_check`` the moment one has expired.  (A kept early report needs
        no rescan either: ``_check`` adopts it only once its sender is the
        watcher, and with the same list and no suspect the watcher is the
        one it was.)  A suspect rescans every expiry, so a suspicion ends
        on evidence whether or not the tap reports it (``_heard``)."""
        if self._peers() is not self._checked or self.suspects:
            self._check()
            return
        detector = self._detector
        records = detector._peers
        beat = detector.heartbeat_interval
        timeout = self.timeout
        since_of = self._member_since
        now = detector._scheduler._now
        due = now + DUE_SLACK
        wake = now + timeout
        for pid in self.first_hand:
            record = records[pid]  # made by the scan that watched it first
            last = record.heard
            since = since_of[pid]
            if last is None or last < since:
                last = since
            interval = record.interval
            if interval is None:
                interval = detector._cadence(record)
            expiry = last + timeout + (interval - beat)  # ``_scan``'s sum
            if expiry <= due:
                self._check()
                return
            if expiry < wake:
                wake = expiry
        self._arm(wake)

    def _check(self, heard: str | None = None) -> None:
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
                detector._forget_cadence()  # ahead of the scan, which reads it
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
        self._checked = members

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


class _Peer:
    """What the detector keeps about one peer, in one record: the
    evidence the monitors read, what the link owes it and what it said."""

    __slots__ = ("pid", "heard", "incarnation", "interval", "asks", "said", "said_until",
                 "deadline", "kept", "route")

    def __init__(self, pid: str, route: "Route") -> None:
        self.pid = pid
        #: When the peer was last heard, and its highest incarnation
        #: heard (None = never heard).
        self.heard: float | None = None
        self.incarnation: int | None = None
        #: (R3, R4) The longest silence the link owes the peer on our
        #: readers' account and whether a heartbeat to it asks — None
        #: until read (see ``_cadence``), again whenever a monitor
        #: changes its mind.
        self.interval: float | None = None
        self.asks = False
        #: (R4) What the peer's latest heartbeat said — whether it watches
        #: us first-hand — and until when that holds: one small timeout.
        self.said: bool | None = None
        self.said_until = float("-inf")
        #: When the next heartbeat to the peer falls due, as of the
        #: keep-alive pass numbered ``kept`` (see ``_keepalive``).
        self.deadline = 0.0
        self.kept = -1
        #: The transport route to the peer: when we last sent it anything.
        self.route = route


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
        #: One record per peer heard from, watched or kept warm.
        self._peers: dict[str, _Peer] = {}
        self._reincarnation_listeners: list[ReincarnationCallback] = []
        self._monitors: list[Monitor] = []
        self._small_timeout = 0.0  # of the fastest monitor held (see ``_read_by``)
        #: Keep-alive passes so far: a deadline set by an earlier pass than
        #: the last one belongs to a peer that left the set meanwhile.
        self._passes = 0
        self._timer: Timer | None = None
        # Counter cells: one increment per datagram-scale event — the
        # dominant background work in long runs.
        counters = process.world.metrics.counters
        self._count_explicit = counters.cell("fd.explicit_hb")
        self._count_suppressed = counters.cell("fd.suppressed")
        self._count_tap = counters.cell("fd.tap_refreshes")
        self._count_answered = counters.cell("fd.answered_in_kind")
        self._transport = process.world.transport
        self.register_port(PORT, self._on_heartbeat)
        self._transport.register_liveness_sink(process, self._on_traffic)

    def start(self) -> None:
        # Whoever chooses whom to watch chooses now: the first heartbeats say so.
        for monitor in self._monitors:
            monitor._check()
        self._keepalive()

    # ------------------------------------------------------------------
    # Client interface (Fig. 9: start_stop_monitor / suspect)
    # ------------------------------------------------------------------
    def monitor(self, peers: PeerProvider | list[str], timeout: float) -> Monitor:
        """Create and start a monitor with its own timeout."""
        return Monitor(self, peers, timeout)

    def _read_by(self, monitor: Monitor) -> None:
        """One more monitor is fed evidence and holds the links' cadence.
        Always a new list: the tap may be iterating the old one."""
        self._monitors = monitors = self._monitors + [monitor]
        self._small_timeout = min(m.timeout for m in monitors)
        self._forget_cadence()

    def _peer(self, pid: str) -> _Peer:
        """The record of ``pid``, made on first use."""
        peer = self._peers.get(pid)
        if peer is None:
            peer = self._peers[pid] = _Peer(pid, self._transport.route(self.pid, pid))
        return peer

    def last_heard(self, pid: str) -> float | None:
        peer = self._peers.get(pid)
        return None if peer is None else peer.heard

    def incarnation_of(self, pid: str) -> int | None:
        """Highest incarnation heard from ``pid`` (None = never heard)."""
        peer = self._peers.get(pid)
        return None if peer is None else peer.incarnation

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
    def _forget_cadence(self) -> None:
        """A monitor changed its mind: every link's cadence is read anew."""
        for peer in self._peers.values():
            peer.interval = None

    def _cadence(self, peer: _Peer) -> float:
        """What the monitors held here make of the link to ``peer``, read
        once until one of them changes its mind (:meth:`_forget_cadence`);
        returns the interval.
        (R3) The longest silence ``peer`` is owed on their account:
        ``heartbeat_interval`` where the fastest of them reads the link
        (watching is mutual, R1 — and a detector cannot see its peers'
        monitors, so one that holds none assumes it everywhere), else a
        quarter of the fastest timeout that does read it.  (R4) And what a
        heartbeat to ``peer`` says: a monitor that does not watch
        everybody watches *you* first-hand — answer in kind."""
        if peer.interval is not None:
            return peer.interval
        pid = peer.pid
        monitors = self._monitors
        reader = min((m.timeout for m in monitors if m.reads(pid)), default=0.0)
        interval = self.heartbeat_interval
        if reader > self._small_timeout:
            interval = max(interval, reader / SILENCES_PER_TIMEOUT)
        peer.asks = any(m.asks(pid) for m in monitors)
        peer.interval = interval
        return interval

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
        record = self._peers.get(peer) or self._peer(peer)
        return self._cadence(record) - self.heartbeat_interval

    def _interval(self, peer: str) -> float:
        """The longest silence ``peer`` is owed: what our own readers make
        it, or ``heartbeat_interval`` while it has asked (R4)."""
        return self._owed(self._peer(peer))

    def _owed(self, peer: _Peer) -> float:
        """:meth:`_interval` of a record."""
        interval = self._cadence(peer)
        if (
            interval > self.heartbeat_interval
            and peer.said is True
            and peer.said_until > self.now
        ):
            return self.heartbeat_interval
        return interval

    def _keepalive(self) -> None:
        """Send the keep-alives that have fallen due (or will within the
        slack) and sleep until the next deadline.  A deadline is looked at
        again only once reached: traffic sent meanwhile has moved it,
        which counts as one suppressed heartbeat — and so does a due
        keep-alive that goes out as what the channel owed the peer.

        Each peer's record is read once.  (R4) A heartbeat asks the
        question regardless of traffic — traffic proves our liveness but
        cannot ask for the peer's — while the peer answers only because
        it is asked (its heartbeats say it does not watch us), or is
        silent: its cadence toward us may be the slow one."""
        now = self._scheduler._now
        beat = self.heartbeat_interval
        channel = self._channel
        peers = self._peers
        last_pass = self._passes
        self._passes = this_pass = last_pass + 1
        wake = None
        for pid in self.peer_provider():
            if pid == self.pid:
                continue
            peer = peers.get(pid) or self._peer(pid)
            # A peer new to the set is owed one at once; one that left is
            # forgotten (its deadline is from an older pass).
            deadline = peer.deadline if peer.kept == last_pass else now
            interval = peer.interval
            if interval is None:
                interval = self._cadence(peer)
            said_holds = peer.said_until > now
            if interval > beat and said_holds and peer.said is True:
                interval = beat
            due_by = now + interval * KEEPALIVE_SLACK + DUE_SLACK
            if deadline <= due_by:
                suppress = channel is not None
                if suppress and peer.asks:
                    heard = peer.heard
                    suppress = not (
                        (said_holds and peer.said is False)
                        or heard is None
                        or now - heard >= beat
                    )
                sent = peer.route.last_sent if suppress else None
                if sent is not None and sent + interval > due_by:
                    # Our own traffic since proved our liveness to this peer.
                    self._count_suppressed.n += 1
                    deadline = sent + interval
                elif suppress and channel.flush_toward(pid):
                    # What the channel owed this peer left instead.
                    self._count_suppressed.n += 1
                    deadline = now + interval
                else:
                    self._count_explicit.n += 1
                    self._transport.send(peer.route, PORT, peer.asks, "fd", HEARTBEAT_BYTES)
                    deadline = now + interval
            peer.deadline = deadline
            peer.kept = this_pass
            if wake is None or deadline < wake:
                wake = deadline
        # With nobody to talk to, look for peers again one interval on.
        if wake is None:
            wake = now + beat
        self._timer = self.schedule(max(0.0, wake - now), self._keepalive)

    def _hurry(self, peers: Collection[str]) -> None:
        """The silence owed to ``peers`` just shrank: their heartbeat is due now."""
        for pid in peers:
            self._peer(pid).deadline = self.now
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
        peer = self._peers.get(src) or self._peer(src)
        slow = asks and self._owed(peer) > self.heartbeat_interval
        peer.said, peer.said_until = asks, self._scheduler._now + self._small_timeout
        if slow:
            self._count_answered.n += 1
            self._hurry((src,))

    # ------------------------------------------------------------------
    # Liveness evidence: the transport tap, and nothing else
    # ------------------------------------------------------------------
    def _on_traffic(self, src: str, incarnation: int, port: str) -> None:
        """Transport liveness tap: any delivered datagram, an explicit
        heartbeat included, refreshes ``last_heard``.  A higher incarnation
        means the peer crashed and came back: whoever listens (monitoring)
        hears of it first.  A *lower* one is a stale pre-crash datagram —
        it must never vouch for the recovered process.  A monitor hears
        of it only if it suspects ``src``.
        """
        if src == self.pid:
            return
        peer = self._peers.get(src) or self._peer(src)
        known = peer.incarnation
        if known != incarnation:
            if known is not None and incarnation < known:
                return
            peer.incarnation = incarnation
            if known is not None:
                self.trace("reincarnated", peer=src, incarnation=incarnation)
                for listener in self._reincarnation_listeners:
                    listener(src, incarnation)
        peer.heard = self._scheduler._now
        if port != PORT:
            self._count_tap.n += 1
        for mon in self._monitors:
            if src in mon.suspects:
                mon._heard(src)
