"""Deterministic discrete-event simulation substrate."""
