"""Consensus (Chandra-Toueg, diamond-S failure detector)."""
