"""The paper's new architecture, wired exactly as in Fig. 9.

Bottom to top on every process:

    unreliable transport            (repro.net.transport, owned by the world)
    reliable channel                (repro.net.reliable)
    failure detection               (repro.fd.heartbeat, multi-timeout monitors)
    reliable broadcast              (repro.broadcast.rbcast)
    consensus                       (repro.consensus.chandra_toueg)
    atomic broadcast                (repro.abcast.consensus_based)
    generic broadcast               (repro.gbcast.thrifty)
    group membership + monitoring   (repro.membership, repro.monitoring)
    application                     (repro.core.api.GroupCommunication)

Dependency direction follows Fig. 9: atomic broadcast relies only on
consensus and reliable broadcast (NOT on membership); membership is a
*client* of atomic broadcast; exclusion decisions are made by the
monitoring component; suspicion and exclusion use distinct timeouts
(small for consensus/generic broadcast progress, large for exclusion —
Section 4.3).

The stack is built bottom-up in that order, in one pass: a component
gets what it depends on as constructor arguments — among them the
small-timeout monitor, which rbcast, consensus and gbcast read and
subscribe to themselves — and nothing is assigned on it afterwards.
Beside constructors there are only registrations on existing interfaces:
the FD's transport tap, abcast's ``on_solicit``, the snapshot sections.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.abcast.consensus_based import ConsensusAtomicBroadcast
from repro.broadcast.rbcast import RELAY_POLICIES, ReliableBroadcast
from repro.consensus.chandra_toueg import ChandraTouegConsensus
from repro.fd.heartbeat import HeartbeatFailureDetector, StarMonitor
from repro.gbcast.conflict import RBCAST_ABCAST, ConflictRelation
from repro.gbcast.quorum import QuorumGenericBroadcast
from repro.gbcast.thrifty import ThriftyGenericBroadcast
from repro.membership.abcast_membership import AbcastGroupMembership
from repro.membership.view import View
from repro.monitoring.component import MonitoringComponent, MonitoringPolicy
from repro.net.overlay import POLICIES
from repro.net.reliable import ReliableChannel
from repro.sim.process import Process
from repro.sim.world import World, build_group


#: Timing of the layers below consensus.  One value each in every run
#: the repository has ever made, so they are constants of the new stack
#: rather than configuration (the component constructors keep their
#: parameters: the traditional baselines pass different ones).
#:
#: ``HEARTBEAT_INTERVAL`` is the longest silence a process allows on a
#: link somebody times out at the *small* timeout — the 2(n−1) links to
#: and from the watcher (``repro.fd.heartbeat``, R3) — before it spends a
#: heartbeat on it: the default suspicion timeout (60 ms) ÷ 4, so two
#: consecutive losses plus the link's delay still fit inside the timeout
#: (3 × 15 + 11 = 56 ms); 20 ms would not leave room for the second loss
#: (35 false suspicions over 95 lossy fault-free explore scenarios
#: against 4 at 15 ms).  Every other link is read by the exclusion
#: monitor alone and kept warm by the same rule applied to *its* timeout,
#: which the detector derives from the monitors it holds: 2 000 ÷ 4 =
#: 500 ms (and whoever reads such a link counts its timeout from the
#: keep-alive that would have come next, so no exclusion comes sooner
#: after a crash than on a fast link).  The fast one is a constant, not derived per stack from
#: ``suspicion_timeout``: tests legitimately set that to 3.0 and to 1e9,
#: which would flood or starve the links.  The slow one *is* derived, so
#: a test that sets ``exclusion_timeout`` to 1e9 to switch exclusion off
#: gets no keep-alives between two members neither of which orders, and
#: one that sets it to 100 gets them every 25 ms.
HEARTBEAT_INTERVAL = 15.0
STUCK_TIMEOUT = 1_000.0


@dataclass(frozen=True)
class StackConfig:
    """Tuning knobs of the new-architecture stack.

    The defaults are the measured configuration: every number in
    ``BENCHMARK.json`` and ``BENCH_abgb.json`` is taken on
    ``StackConfig()`` (plus the scenario's own sweep variable).

    The two timeouts embody Section 3.3.2: ``suspicion_timeout`` is the
    *small* timeout used by consensus and generic broadcast to make
    progress past a silent process; ``monitoring.exclusion_timeout`` is
    the *large* timeout after which the monitoring component actually
    excludes it.  Generic broadcast's fast-path timeout is its
    constructor's default (250 ms): like ``HEARTBEAT_INTERVAL``, a value
    every run uses unchanged is a constant, not configuration.
    """

    suspicion_timeout: float = 60.0
    #: Consensus pipelining window for atomic broadcast: up to this many
    #: consensus instances run concurrently (1 = classic serial mode).
    #: The window automatically collapses to 1 while a membership ctl op
    #: is pending (see ``repro.abcast.consensus_based``).
    abcast_window: int = 4
    #: Cap on messages per consensus proposal batch (None = unlimited).
    #: With ``abcast_window > 1`` a burst splits across concurrent
    #: instances instead of riding one giant batch.
    abcast_max_batch: int | None = 4
    #: Reliable-broadcast relay policy: ``"lazy"`` relays only for
    #: origins the FD currently suspects, asking its peers for what it
    #: lacks when a suspicion arises — O(n) datagrams per broadcast in the
    #: failure-free case; ``"eager"`` relays every packet on first
    #: receipt (O(n²) datagrams, per-sender FIFO through any fault).
    #: Same delivery guarantee either way.
    relay_policy: str = "lazy"
    #: Payload dissemination overlay (``repro.net.overlay``): ``"flood"``
    #: has the origin unicast every rbcast packet to all n−1 members;
    #: ``"ring"`` sends each body to the view's first member and along
    #: the chain of the others, every node sending it at most once.
    #: Small packets (what orders) go direct over the ring too.  The
    #: ring re-routes around FD-suspected members and, like lazy relay,
    #: asks every unsuspected peer for what it lacks on a suspicion
    #: edge, so the rbcast delivery guarantee is unchanged.
    dissemination: str = "flood"
    #: Reliable-channel send coalescing: segments to the same peer ride
    #: one datagram, held for this window (ms) behind a datagram sent to
    #: that peer within it and only to the end of the instant on a link
    #: idle that long; ACKs are delayed and cumulative.  None disables
    #: coalescing (every segment is its own datagram, ACKed immediately).
    coalesce_delay: float | None = 1.0
    #: Max DATA segments packed into one coalesced datagram.
    max_segment_batch: int = 8
    monitoring: MonitoringPolicy = field(default_factory=MonitoringPolicy)
    #: Use the quorum (n - floor((n-1)/3)) fast path of Aguilera et al. [1]
    #: instead of the all-ack fast path: with n > 3f the fast path keeps
    #: working through up to f crashes, at the cost of a gather round on
    #: stage closure.
    quorum_fast_path: bool = False

    def __post_init__(self) -> None:
        valid = {
            "suspicion_timeout": self.suspicion_timeout > 0,
            "abcast_window": self.abcast_window >= 1,
            "abcast_max_batch": self.abcast_max_batch is None or self.abcast_max_batch >= 1,
            "relay_policy": self.relay_policy in RELAY_POLICIES,
            "dissemination": self.dissemination in POLICIES,
            "coalesce_delay": self.coalesce_delay is None or self.coalesce_delay >= 0,
            "max_segment_batch": self.max_segment_batch >= 1,
        }
        for name, ok in valid.items():
            if not ok:
                raise ValueError(f"invalid StackConfig.{name}: {getattr(self, name)!r}")


class NewArchitectureStack:
    """All Fig. 9 components of one process, wired together."""

    def __init__(
        self,
        process: Process,
        initial_members: list[str],
        conflict: ConflictRelation = RBCAST_ABCAST,
        config: StackConfig | None = None,
        is_member: bool = True,
    ) -> None:
        self.process = process
        self.config = config or StackConfig()
        self.conflict = conflict
        cfg = self.config

        initial_view = View.initial(initial_members) if is_member else None

        self.channel = ReliableChannel(
            process,
            stuck_timeout=STUCK_TIMEOUT,
            coalesce_delay=cfg.coalesce_delay,
            max_segment_batch=cfg.max_segment_batch,
        )
        # Group provider closure: resolved through the membership
        # component created below (late binding keeps Fig. 9's dependency
        # arrows intact — abcast never *calls* membership logic, it only
        # reads the current member list).
        members = lambda: self.membership.current_members()

        # Traffic-aware FD: the explicit heartbeat to a peer is skipped
        # while our own datagrams keep that link warm, and a due one goes
        # out as whatever the channel owes the peer.  The traditional
        # baselines build theirs without a channel (the paper's constant
        # heartbeat stream).
        self.fd = HeartbeatFailureDetector(
            process, members, heartbeat_interval=HEARTBEAT_INTERVAL, channel=self.channel
        )
        # The one small-timeout monitor (suspicion != exclusion): always
        # on over the current members, so consensus NACKs a coordinator
        # that is *already* suspected when an instance starts.  The
        # layers built with it subscribe themselves, so one edge reaches
        # them top-down in one event: generic broadcast unblocks the
        # fast path (and promotes the next stage closer), consensus
        # moves past the suspect, rbcast asks for what it lacks.  It
        # times out the watcher only and has the rest from the watcher's
        # reports, which travel over the reliable channel.
        self.suspicion_monitor = StarMonitor(self.fd, members, cfg.suspicion_timeout, self.channel)
        self.rbcast = ReliableBroadcast(
            process,
            self.channel,
            members,
            relay_policy=cfg.relay_policy,
            monitor=self.suspicion_monitor,
            dissemination=cfg.dissemination,
        )
        self.consensus = ChandraTouegConsensus(
            process, self.channel, self.rbcast, self.suspicion_monitor, fast_path=True
        )
        self.abcast = ConsensusAtomicBroadcast(
            process,
            self.rbcast,
            self.consensus,
            members,
            window=cfg.abcast_window,
            max_batch=cfg.abcast_max_batch,
        )
        self.membership = AbcastGroupMembership(process, self.channel, self.abcast, initial_view)
        gbcast_class = QuorumGenericBroadcast if cfg.quorum_fast_path else ThriftyGenericBroadcast
        self.gbcast = gbcast_class(
            process,
            self.channel,
            self.rbcast,
            self.abcast,
            conflict,
            members,
            self.suspicion_monitor,
        )
        self.monitoring = MonitoringComponent(
            process, self.fd, self.membership, self.channel, cfg.monitoring
        )
        # Joiners and recovered incarnations resume mid-stream: the
        # state-transfer snapshot carries the rbcast stability watermarks
        # and the generic broadcast stage next to the abcast position.
        for name, layer in (("rbcast", self.rbcast), ("gbcast", self.gbcast)):
            self.membership.register_snapshot(name, layer.snapshot, layer.install_snapshot)

    @property
    def pid(self) -> str:
        return self.process.pid

    def view(self) -> View | None:
        return self.membership.current_view()


def build_new_group(
    world: World,
    count: int,
    conflict: ConflictRelation = RBCAST_ABCAST,
    config: StackConfig | None = None,
) -> dict[str, NewArchitectureStack]:
    """Spawn ``count`` processes, each running the full Fig. 9 stack."""
    return build_group(world, count, NewArchitectureStack, conflict=conflict, config=config)


RebuildHook = Callable[[str, NewArchitectureStack], None]


def enable_recovery(
    world: World,
    stacks: dict[str, NewArchitectureStack],
    conflict: ConflictRelation = RBCAST_ABCAST,
    config: StackConfig | None = None,
    on_rebuild: RebuildHook | None = None,
) -> None:
    """Arm ``World.recover`` for every stack in ``stacks``.

    Registers a recovery factory per process: when ``world.recover(pid)``
    fires, a fresh Fig. 9 stack is built on the re-incarnated process
    (``is_member=False`` — its volatile state, including the view, is
    gone) and the process rejoins through the abcast-based membership.
    Rejoin requests are retried every
    :data:`repro.membership.abcast_membership.REJOIN_INTERVAL` ms, cycling
    through the currently-alive peers as sponsor seeds, until a state
    snapshot arrives and a view is installed.

    ``on_rebuild(pid, stack)`` lets the application re-attach its own
    components (facade, replicas, delivery taps) to the new stack — the
    old incarnation's objects are dead and must not be reused.
    """

    def factory(process) -> NewArchitectureStack:
        pid = process.pid
        stack = NewArchitectureStack(
            process, [], conflict=conflict, config=config, is_member=False
        )
        stacks[pid] = stack
        if on_rebuild is not None:
            on_rebuild(pid, stack)
        process.schedule(0.0, stack.membership.request_join)
        return stack

    for pid in list(stacks):
        world.set_recovery_factory(pid, factory)
