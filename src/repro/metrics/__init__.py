"""Counters, latency recorders, interval trackers."""
