"""Reliable broadcast."""
