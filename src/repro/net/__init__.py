"""Simulated network: messages, unreliable transport, reliable channel."""

from repro.net.message import DEFAULT_CLASS, AppMessage, Envelope, MsgId, MsgIdFactory
from repro.net.reliable import ReliableChannel
from repro.net.topology import LAN, LOSSY, LinkModel, PartitionState
from repro.net.transport import UnreliableTransport
from repro.net.wire import HEADER_BYTES, Blob, payload_size, wire_size

__all__ = [
    "AppMessage",
    "Blob",
    "DEFAULT_CLASS",
    "Envelope",
    "HEADER_BYTES",
    "LAN",
    "LOSSY",
    "LinkModel",
    "MsgId",
    "MsgIdFactory",
    "PartitionState",
    "ReliableChannel",
    "UnreliableTransport",
    "payload_size",
    "wire_size",
]
