"""Simulated network: messages, unreliable transport, reliable channel."""
