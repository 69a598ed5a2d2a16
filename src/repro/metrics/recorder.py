"""Combined metrics recorder attached to each simulated world.

Bundles counters and latency samples.  An interval of any kind is a
latency sample: how long senders stay blocked during a view change
(Section 4.4 of the paper) is the ``vs.blocked`` tag, one sample per
blocking episode.
"""

from __future__ import annotations

from repro.metrics.counters import Counters
from repro.metrics.latency import LatencyRecorder


class MetricsRecorder:
    """All measurement state for one simulation run."""

    def __init__(self) -> None:
        self.counters = Counters()
        self.latency = LatencyRecorder()

    def clear(self) -> None:
        self.counters.clear()
        self.latency.clear()
