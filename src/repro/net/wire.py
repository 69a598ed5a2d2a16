"""Deterministic wire-byte cost model for simulated datagrams.

The simulator's protocol objects never serialise — payloads travel as
Python structures — so per-datagram *byte* cost must be estimated
structurally.  :func:`wire_size` walks a payload and charges each piece
what a compact binary encoding would: fixed-width scalars, length-prefixed
strings/containers, and a fixed per-datagram header (:data:`HEADER_BYTES`,
an IPv4+UDP-sized envelope).  The estimate is a pure function of the
payload's structure, so two runs of the same seeded scenario produce
identical ``net.bytes.*`` counters — the cost model is part of the
determinism contract, not a profiler.

Large application payloads are modelled with :class:`Blob`: a placeholder
that *sizes* like ``n`` bytes without allocating them, so a 4 KiB-payload
benchmark costs the interpreter nothing beyond a tiny frozen dataclass.
Its ``repr`` is short by construction — traces and span notes record
payload sizes, never bodies.

The same estimate drives the optional bandwidth term of
:class:`repro.net.topology.LinkModel`: with ``bytes_per_ms`` set, a
datagram's transit delay grows by ``wire_size(payload) / bytes_per_ms``,
so large payloads congest links instead of teleporting.  The term is off
by default and adds no RNG draws, leaving same-seed fingerprints
byte-identical unless a scenario opts in.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any

from repro.net.message import AppMessage, MsgId

#: Fixed per-datagram envelope: IPv4 header (20) + UDP header (8).
HEADER_BYTES = 28

#: Length prefix charged to every variable-length item (str, bytes,
#: container): a compact encoding needs at least a 2-byte length.
LEN_PREFIX = 2

#: Fixed-width scalar costs.
INT_BYTES = 8
FLOAT_BYTES = 8
BOOL_BYTES = 1
NONE_BYTES = 1


@dataclass(frozen=True)
class Blob:
    """A payload placeholder that sizes like ``size`` opaque bytes.

    Workload generators use it to model large application payloads (the
    64 B vs 4 KiB sweep) without allocating or copying real buffers —
    the interpreter cost of a broadcast stays flat while the wire-byte
    cost model charges the full ``size``.
    """

    size: int

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError(f"Blob size must be >= 0, got {self.size}")

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        return f"Blob({self.size})"


#: Field names per dataclass type (None: not a dataclass), resolved once
#: per class instead of ``dataclasses.fields()`` on every object sized.
_FIELD_NAMES: dict[type, tuple[str, ...] | None] = {}


def _field_names(t: type) -> tuple[str, ...] | None:
    names = _FIELD_NAMES.get(t, False)
    if names is False:
        names = (
            tuple(f.name for f in dataclasses.fields(t))
            if dataclasses.is_dataclass(t)
            else None
        )
        _FIELD_NAMES[t] = names
    return names


def payload_size(obj: Any) -> int:
    """Structural byte size of ``obj`` under a compact binary encoding.

    Deterministic and total: unknown objects are sized via their
    dataclass fields when possible, else by the length of their ``str``
    form (stable for the repr-friendly value objects the protocols
    carry).  Containers pay :data:`LEN_PREFIX` plus their items.

    A :class:`~repro.net.message.MsgId` sizes like the tuple of its three
    fields, an :class:`~repro.net.message.AppMessage` like its four fields
    — and is sized once: the result is kept on the (immutable) message.
    """
    if obj is None:
        return NONE_BYTES
    if obj is True or obj is False:
        return BOOL_BYTES
    t = type(obj)
    if t is int:
        return INT_BYTES
    if t is str:
        return LEN_PREFIX + len(obj)
    if t is tuple or t is list:
        total = LEN_PREFIX
        for item in obj:
            total += payload_size(item)
        return total
    if t is MsgId:
        # (sender: str, seq: int, incarnation: int)
        return 2 * LEN_PREFIX + len(obj[0]) + 2 * INT_BYTES
    if t is AppMessage:
        size = obj._size
        if size is None:
            size = (
                LEN_PREFIX
                + payload_size(obj.id)
                + payload_size(obj.sender)
                + payload_size(obj.payload)
                + payload_size(obj.msg_class)
            )
            object.__setattr__(obj, "_size", size)
        return size
    if t is float:
        return FLOAT_BYTES
    if t is bytes or t is bytearray:
        return LEN_PREFIX + len(obj)
    if t is Blob:
        return LEN_PREFIX + obj.size
    if t is dict:
        total = LEN_PREFIX
        for key, value in obj.items():
            total += payload_size(key) + payload_size(value)
        return total
    if t is set or t is frozenset:
        total = LEN_PREFIX
        for item in obj:
            total += payload_size(item)
        return total
    # Slower fallbacks, off the per-datagram hot path for the common
    # wire shapes above: int/float subclasses, other dataclasses (value
    # objects such as views), then the str form.
    if isinstance(obj, bool):
        return BOOL_BYTES
    if isinstance(obj, int):
        return INT_BYTES
    if isinstance(obj, float):
        return FLOAT_BYTES
    names = _field_names(t)
    if names is not None:
        total = LEN_PREFIX
        for name in names:
            total += payload_size(getattr(obj, name))
        return total
    return LEN_PREFIX + len(str(obj))


def tuple_size(items_bytes: int) -> int:
    """:func:`payload_size` of a tuple whose items together size
    ``items_bytes`` — for a caller that sized the items already."""
    return LEN_PREFIX + items_bytes


def wire_size(payload: Any) -> int:
    """Estimated on-the-wire size of one datagram carrying ``payload``."""
    return HEADER_BYTES + payload_size(payload)


def datagram_size(items_bytes: int) -> int:
    """:func:`wire_size` of a tuple datagram whose items together size
    ``items_bytes``."""
    return HEADER_BYTES + LEN_PREFIX + items_bytes
