"""Unreliable failure detection (heartbeats, per-client monitors)."""

from repro.fd.heartbeat import HeartbeatFailureDetector, Monitor, StarMonitor, watcher

__all__ = [
    "HeartbeatFailureDetector",
    "Monitor",
    "StarMonitor",
    "watcher",
]
