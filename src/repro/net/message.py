"""Message identities and application-level messages.

A :class:`MsgId` is globally unique and totally ordered (sender id, then
per-sender sequence number); protocols use this order whenever they need
a deterministic tie-break that is identical at every process.

Both structs are on every datagram's path, so they are built for the
interpreter: a :class:`MsgId` is a tuple (it hashes and compares in C),
and an :class:`AppMessage` keeps its wire size once it has been sized
(see ``repro.net.wire.payload_size``).  Every member keeps every message
it delivered, so an :class:`AppMessage` is slotted: no ``__dict__``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, NamedTuple

#: Conflict class used when the caller does not specify one.  The
#: built-in relations treat it as conflicting with everything, which is
#: the safe default (equivalent to atomic broadcast).
DEFAULT_CLASS = "default"


class MsgId(NamedTuple):
    """Globally unique, totally ordered message identifier.

    ``incarnation`` distinguishes the message streams of successive
    incarnations of the same process under the crash-recovery model: a
    recovered process restarts its sequence numbers from zero (volatile
    state is lost), so ids stay globally unique only because they also
    carry the incarnation number.

    A tuple ``(sender, seq, incarnation)``: it hashes, compares and
    orders exactly as that plain tuple does, so it also *equals* it
    (``MsgId("p00", 3) == ("p00", 3, 0)``).  No protocol keys one
    mapping by both.
    """

    sender: str
    seq: int
    incarnation: int = 0

    def __str__(self) -> str:
        if self.incarnation:
            return f"{self.sender}~{self.incarnation}#{self.seq}"
        return f"{self.sender}#{self.seq}"


@dataclass(frozen=True, slots=True)
class AppMessage:
    """An application message carried by the broadcast primitives.

    ``msg_class`` is the conflict class used by generic broadcast
    (Section 3.2.1 of the paper: the ordering of messages is defined by a
    conflict relation on message classes).
    """

    id: MsgId
    sender: str
    payload: Any
    msg_class: str = DEFAULT_CLASS

    #: Wire size, set by ``repro.net.wire.payload_size`` the first time
    #: the message is sized (the message is immutable, so it holds at
    #: every hop and for every peer).  A slot outside ``__init__``,
    #: ``__eq__``, ``__hash__`` and ``__repr__``, and not on the wire.
    _size: int | None = field(default=None, init=False, repr=False, compare=False)

    def __str__(self) -> str:
        return f"{self.id}[{self.msg_class}]"


class MsgIdFactory:
    """Per-(process, incarnation) factory for unique message ids."""

    def __init__(self, pid: str, incarnation: int = 0) -> None:
        self.pid = pid
        self.incarnation = incarnation
        self._counter = itertools.count()

    def next(self) -> MsgId:
        return MsgId(self.pid, next(self._counter), self.incarnation)

    def message(self, payload: Any, msg_class: str = DEFAULT_CLASS) -> AppMessage:
        return AppMessage(self.next(), self.pid, payload, msg_class)
