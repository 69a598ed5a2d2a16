"""Adaptive failure-detection timeouts.

Section 3.3.2 of the paper stresses that the failure-detection component
serves multiple clients with *different* timeout policies.  Beyond fixed
small/large timeouts, this module provides an adaptive monitor in the
style of Chen/Toueg adaptive failure detectors: the timeout for each peer
tracks the observed inter-arrival distribution of liveness evidence —

    timeout(peer) = mean_gap(peer) + safety_factor * stddev(peer) + margin

clamped to [min_timeout, max_timeout].  On a quiet LAN the timeout
shrinks towards the heartbeat interval (fast detection); when the link
jitters, it grows automatically (fewer false suspicions) — the knob the
paper's responsiveness argument (Section 4.3) turns by hand.

**The arrival-gap estimator lives here**, with its one reader, fed by
what every monitor is fed (:meth:`Monitor._heard`: the detector's
transport tap) — it cannot tell a heartbeat from a datagram of traffic.
It models the evidence a live peer *guarantees*, one arrival per
heartbeat period (traffic on a busy link, a heartbeat on an idle one),
so it samples once per heartbeat period of the **receiver's** clock: the
first arrival in ``[k·interval, (k+1)·interval)`` is a sample, the rest
of a burst is not.  Two heartbeats that jitter lands in one period count
once and the next gap reads longer — an error on the conservative side.
A detector without an adaptive monitor records nothing.
"""

from __future__ import annotations

import math
from collections import deque

from repro.fd.heartbeat import HeartbeatFailureDetector, Monitor, PeerProvider, SuspicionCallback


class AdaptiveMonitor(Monitor):
    """A monitor whose per-peer timeout follows observed arrival gaps."""

    def __init__(
        self,
        detector: HeartbeatFailureDetector,
        peers: PeerProvider | list[str],
        safety_factor: float = 4.0,
        margin: float = 5.0,
        min_timeout: float = 20.0,
        max_timeout: float = 5_000.0,
        on_suspect: SuspicionCallback | None = None,
        on_trust: SuspicionCallback | None = None,
    ) -> None:
        super().__init__(detector, peers, max_timeout, on_suspect, on_trust)
        self.safety_factor = safety_factor
        self.margin = margin
        self.min_timeout = min_timeout
        self.max_timeout = max_timeout
        self._arrival_gaps: dict[str, deque[float]] = {}
        #: Time and heartbeat period of the latest sample per peer.
        self._last_sample: dict[str, tuple[float, int]] = {}
        detector.on_reincarnation(self._forget)

    def _forget(self, peer: str, _incarnation: int) -> None:
        """``peer`` came back: gap statistics across its outage are meaningless."""
        self._arrival_gaps.pop(peer, None)
        self._last_sample.pop(peer, None)

    def arrival_gaps(self, peer: str) -> list[float]:
        """Recent per-heartbeat-period inter-arrival gaps (ms) for ``peer``."""
        return list(self._arrival_gaps.get(peer, ()))

    def _heard(self, peer: str) -> None:
        now = self._detector.now
        period = int(now / self._detector.heartbeat_interval)
        last = self._last_sample.get(peer)
        if last is not None:
            if period <= last[1]:
                super()._heard(peer)  # the rest of a burst: evidence, no sample
                return
            self._arrival_gaps.setdefault(peer, deque(maxlen=32)).append(now - last[0])
        self._last_sample[peer] = (now, period)
        # The timeouts, hence the expiries, move with every sample.
        self._check()

    def timeout_for(self, peer: str) -> float:
        gaps = self._arrival_gaps.get(peer, ())
        if len(gaps) < 4:
            # Not enough history: be conservative.
            return self.max_timeout
        mean = sum(gaps) / len(gaps)
        variance = sum((g - mean) ** 2 for g in gaps) / len(gaps)
        timeout = mean + self.safety_factor * math.sqrt(variance) + self.margin
        return max(self.min_timeout, min(self.max_timeout, timeout))


#: The factory name the API documents: an adaptive monitor registers with
#: its detector on construction like any other, so it is the class.
adaptive_monitor = AdaptiveMonitor
