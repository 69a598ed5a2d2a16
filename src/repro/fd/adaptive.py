"""Adaptive failure-detection timeouts.

Section 3.3.2 of the paper stresses that the failure-detection component
serves multiple clients with *different* timeout policies.  Beyond fixed
small/large timeouts, this module provides an adaptive monitor in the
style of Chen/Toueg adaptive failure detectors: the timeout for each peer
tracks the observed heartbeat inter-arrival distribution —

    timeout(peer) = mean_gap(peer) + safety_factor * stddev(peer) + margin

clamped to [min_timeout, max_timeout].  On a quiet LAN the timeout
shrinks towards the heartbeat interval (fast detection); when the link
jitters, it grows automatically (fewer false suspicions) — the knob the
paper's responsiveness argument (Section 4.3) turns by hand.
"""

from __future__ import annotations

import math

from repro.fd.heartbeat import HeartbeatFailureDetector, Monitor, PeerProvider, SuspicionCallback


class AdaptiveMonitor(Monitor):
    """A monitor whose per-peer timeout follows observed arrival gaps."""

    def __init__(
        self,
        detector: HeartbeatFailureDetector,
        peers: PeerProvider,
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

    def _sampled(self) -> None:
        self._check()

    def timeout_for(self, peer: str) -> float:
        gaps = self._detector.arrival_gaps(peer)
        if len(gaps) < 4:
            # Not enough history: be conservative.
            return self.max_timeout
        mean = sum(gaps) / len(gaps)
        variance = sum((g - mean) ** 2 for g in gaps) / len(gaps)
        timeout = mean + self.safety_factor * math.sqrt(variance) + self.margin
        return max(self.min_timeout, min(self.max_timeout, timeout))


def adaptive_monitor(
    detector: HeartbeatFailureDetector,
    peers: PeerProvider | list[str],
    safety_factor: float = 4.0,
    margin: float = 5.0,
    min_timeout: float = 20.0,
    max_timeout: float = 5_000.0,
    on_suspect: SuspicionCallback | None = None,
    on_trust: SuspicionCallback | None = None,
) -> AdaptiveMonitor:
    """Create and register an adaptive monitor on ``detector``."""
    if isinstance(peers, list):
        fixed = list(peers)
        provider: PeerProvider = lambda: fixed
    else:
        provider = peers
    monitor = AdaptiveMonitor(
        detector,
        provider,
        safety_factor=safety_factor,
        margin=margin,
        min_timeout=min_timeout,
        max_timeout=max_timeout,
        on_suspect=on_suspect,
        on_trust=on_trust,
    )
    detector._monitors.append(monitor)
    return monitor
