"""Atomic broadcast protocols (consensus-based, sequencer, token ring)."""
