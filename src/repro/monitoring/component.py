"""The monitoring component (Section 3.3.2).

In the new architecture the decision to *exclude* a suspected process is
not made by the group membership component — it is made here, and only
then is the membership's ``remove`` operation called.  Decoupling
suspicion from exclusion is what allows consensus to run with small
failure-detection timeouts while exclusions use large ones
(Section 4.3).

Supported exclusion policies (all from the paper):

* **failure-detector suspicion** with a large timeout
  (``exclusion_timeout``), always on;
* **threshold voting** — exclude ``q`` only after ``votes_required``
  distinct processes also suspect ``q`` ("decide on the removal of q
  only after having learned that a threshold of other processes also
  suspect q");
* **output-triggered suspicion** [12], always on — the reliable channel
  reports how long its oldest unacknowledged message to a peer has
  waited, and past the same ``exclusion_timeout`` the peer is suspected;
  an exclusion is the only way to safely discard such messages.

The component gossips suspicion votes over reliable channels and calls
``membership.remove`` once the policy threshold is met; on the removal
taking effect it tells the reliable channel to discard the excluded
process's buffer.

Votes are **incarnation-stamped**: each vote carries the suspect's
incarnation as known to the voter, and votes against an incarnation
older than the one the local failure detector has already heard from are
discarded.  With traffic-aware liveness the FD can learn of a recovery
from the first datagram of the new incarnation (a rejoin request, say),
well before any explicit heartbeat — without the stamp, a stale
in-flight vote cast against the dead incarnation could repopulate the
evidence that :meth:`MonitoringComponent._on_reincarnation` just
cleared, and get a freshly recovered process excluded for its
predecessor's silence.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fd.heartbeat import HeartbeatFailureDetector
from repro.membership.abcast_membership import AbcastGroupMembership
from repro.net.reliable import ReliableChannel
from repro.sim.process import Component, Process

VOTE_PORT = "mon.vote"


@dataclass(frozen=True)
class MonitoringPolicy:
    """Configuration of the exclusion policy: one large timeout, for the
    failure detector's silence and the channel's unacknowledged output
    alike."""

    exclusion_timeout: float = 2_000.0
    votes_required: int = 1

    def __post_init__(self) -> None:
        if self.votes_required < 1:
            raise ValueError("votes_required must be >= 1")


class MonitoringComponent(Component):
    """Decides exclusions; the membership component only executes them."""

    def __init__(
        self,
        process: Process,
        fd: HeartbeatFailureDetector,
        membership: AbcastGroupMembership,
        channel: ReliableChannel,
        policy: MonitoringPolicy,
    ) -> None:
        super().__init__(process, "monitoring")
        self.policy = policy
        self.fd = fd
        self.membership = membership
        self.channel = channel
        self._votes: dict[str, set[str]] = {}
        self._excluded_requested: set[str] = set()
        self.register_port(VOTE_PORT, self._on_vote)
        self.monitor = fd.monitor(membership.current_members, self.policy.exclusion_timeout)
        self.monitor.subscribe(self._on_local_suspicion)
        channel.on_stuck(self._on_output_stuck)
        fd.on_reincarnation(self._on_reincarnation)
        membership.on_removal(self._on_removed)

    # ------------------------------------------------------------------
    # Suspicion sources
    # ------------------------------------------------------------------
    def _on_local_suspicion(self, suspect: str) -> None:
        self.trace("fd_suspicion", suspect=suspect)
        self.world.metrics.counters.inc("monitoring.fd_suspicions")
        self._cast_vote(suspect)

    def _on_reincarnation(self, pid: str, incarnation: int) -> None:
        """A fresh incarnation of ``pid`` is heartbeating: suspicion
        evidence gathered against the dead incarnation is void.  Dropping
        it is what lets a recovered (or wrongly suspected and restarted)
        process be re-admitted instead of excluded (Section 4.3)."""
        votes = self._votes.pop(pid, None)
        if votes:
            self.world.metrics.counters.inc("monitoring.suspicions_cleared")
            self.trace("suspicion_cleared", peer=pid, incarnation=incarnation, votes=len(votes))

    def _on_output_stuck(self, dst: str, age: float) -> None:
        if age < self.policy.exclusion_timeout:
            return
        if dst not in self.membership.current_members():
            return
        self.trace("output_suspicion", suspect=dst, age=age)
        self.world.metrics.counters.inc("monitoring.output_suspicions")
        self._cast_vote(dst)

    # ------------------------------------------------------------------
    # Voting (Section 3.3.2: threshold of other processes also suspect q)
    # ------------------------------------------------------------------
    def _cast_vote(self, suspect: str) -> None:
        members = self.membership.current_members()
        if self.pid not in members:
            # A process that is not (or no longer) a member has no say
            # in exclusions — its evidence is about a group it left.
            return
        if suspect not in members or suspect in self._excluded_requested:
            return
        already_voted = self.pid in self._votes.setdefault(suspect, set())
        self._votes[suspect].add(self.pid)
        if not already_voted:
            stamped = (suspect, self.fd.incarnation_of(suspect) or 0)
            for member in members:
                if member not in (self.pid, suspect):
                    self.channel.send(member, VOTE_PORT, stamped)
        self._maybe_exclude(suspect)

    def _on_vote(self, src: str, payload: tuple[str, int]) -> None:
        suspect, incarnation = payload
        if suspect not in self.membership.current_members():
            return
        known = self.fd.incarnation_of(suspect)
        if known is not None and incarnation < known:
            # Evidence against a dead incarnation: the suspect already
            # recovered past it, the vote must not count.
            self.world.metrics.counters.inc("monitoring.stale_votes_dropped")
            return
        self._votes.setdefault(suspect, set()).add(src)
        self._maybe_exclude(suspect)

    def _maybe_exclude(self, suspect: str) -> None:
        if suspect in self._excluded_requested:
            return
        votes = self._votes.get(suspect, set())
        if self.pid not in votes:
            # Only act once *we* suspect the process too; other
            # processes' votes alone never trigger our remove call.
            return
        if len(votes) >= self.policy.votes_required:
            self._excluded_requested.add(suspect)
            self.world.metrics.counters.inc("monitoring.exclusions_requested")
            self.trace("exclude", suspect=suspect, votes=len(votes))
            self.membership.remove(suspect)

    # ------------------------------------------------------------------
    # Exclusion effects
    # ------------------------------------------------------------------
    def _on_removed(self, pid: str) -> None:
        # The excluded process no longer has to receive buffered
        # messages; discard them (Section 3.3.2, output-triggered case).
        self.channel.discard(pid)
        self._votes.pop(pid, None)
        self._excluded_requested.discard(pid)
