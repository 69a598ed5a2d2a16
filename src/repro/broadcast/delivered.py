"""The ids a member has delivered, one bit each.

Every ordering layer asks "already delivered?" of each message it meets,
and nothing ever leaves that set (a late copy or a retransmission must
stay a duplicate for ever).  Ids come from one counter per
``(process, incarnation)`` (:class:`repro.net.message.MsgIdFactory`), so
per ``(sender, incarnation)`` the sequence numbers a layer delivers are
dense: :class:`DeliveredIds` keeps one bitmap of them per stream instead
of one hashed tuple per id.

The store is exact.  The same counter also numbers the ids a layer never
delivers (gbcast's own ENDSTAGEs are a-delivered, not g-delivered; a
membership op is abcast's, not gbcast's), so a stream has holes; a bit
that is not set stays a hole, and only a leading byte whose eight bits
are all set is dropped (``base`` moves past it).  Iterating the store
yields exactly the ids added, so ``set(store)`` is the set a layer held
before, and a state snapshot built from it is the same on the wire.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator

from repro.net.message import MsgId

#: Runs of bytes with some bit set: one run per stretch without a whole
#: byte missing, so iteration skips the empty stretches in C.
_SET_RUNS = re.compile(rb"[^\x00]+")


class _Stream:
    """One ``(sender, incarnation)``: every seq below ``base`` is
    delivered; bit ``i`` of ``bits`` says whether ``base + i`` is."""

    __slots__ = ("base", "bits")

    def __init__(self) -> None:
        self.base = 0
        self.bits = bytearray()


class DeliveredIds:
    """An add-only set of :class:`~repro.net.message.MsgId`: ``add``,
    ``in``, ``|=`` (any iterable of ids), ``len`` and iteration.

    A stream is keyed by its sender for incarnation 0 and by
    ``(sender, incarnation)`` after a recovery, so the common test is one
    dict lookup and no tuple is built for it.
    """

    __slots__ = ("_streams",)

    def __init__(self, ids: Iterable[MsgId] = ()) -> None:
        self._streams: dict[str | tuple[str, int], _Stream] = {}
        self |= ids

    def __contains__(self, mid: MsgId) -> bool:
        sender, seq, incarnation = mid
        stream = self._streams.get((sender, incarnation) if incarnation else sender)
        if stream is None:
            return False
        index = seq - stream.base
        if index < 0:
            return seq >= 0
        bits = stream.bits
        byte = index >> 3
        return byte < len(bits) and bits[byte] >> (index & 7) & 1 == 1

    def add(self, mid: MsgId) -> None:
        sender, seq, incarnation = mid
        if seq < 0:
            raise ValueError(f"a message id counts from 0: {mid!r}")
        key = (sender, incarnation) if incarnation else sender
        stream = self._streams.get(key)
        if stream is None:
            stream = self._streams[key] = _Stream()
        index = seq - stream.base
        if index < 0:
            return
        bits = stream.bits
        byte = index >> 3
        if byte >= len(bits):
            bits.extend(bytes(byte + 1 - len(bits)))
        bits[byte] |= 1 << (index & 7)
        if byte == 0 and bits[0] == 0xFF:
            full = 1
            while full < len(bits) and bits[full] == 0xFF:
                full += 1
            del bits[:full]
            stream.base += 8 * full

    def __ior__(self, ids: Iterable[MsgId]) -> DeliveredIds:
        for mid in ids:
            self.add(mid)
        return self

    def __len__(self) -> int:
        return sum(
            stream.base + int.from_bytes(stream.bits, "little").bit_count()
            for stream in self._streams.values()
        )

    def __iter__(self) -> Iterator[MsgId]:
        for key, stream in self._streams.items():
            sender, incarnation = (key, 0) if type(key) is str else key
            base = stream.base
            for seq in range(base):
                yield MsgId(sender, seq, incarnation)
            bits = stream.bits
            for run in _SET_RUNS.finditer(bits):
                for byte in range(run.start(), run.end()):
                    value = bits[byte]
                    for bit in range(8):
                        if value >> bit & 1:
                            yield MsgId(sender, base + 8 * byte + bit, incarnation)

    def __repr__(self) -> str:
        return f"DeliveredIds({sorted(self)!r})"
