"""Unreliable failure detection (heartbeats, per-client monitors)."""

from repro.fd.adaptive import AdaptiveMonitor, adaptive_monitor
from repro.fd.heartbeat import HeartbeatFailureDetector, Monitor, StarMonitor, watcher

__all__ = [
    "AdaptiveMonitor",
    "HeartbeatFailureDetector",
    "Monitor",
    "StarMonitor",
    "adaptive_monitor",
    "watcher",
]
