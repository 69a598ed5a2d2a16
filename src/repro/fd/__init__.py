"""Unreliable failure detection (heartbeats, per-client monitors)."""
