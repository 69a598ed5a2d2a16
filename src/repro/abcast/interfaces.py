"""Shared interfaces for the atomic broadcast implementations.

The repo ships three atomic broadcast protocols:

* :class:`repro.abcast.consensus_based.ConsensusAtomicBroadcast` — the
  new architecture's basic component (◇S, no membership below it);
* :class:`repro.abcast.sequencer.SequencerAtomicBroadcast` — the
  Isis/Phoenix fixed-sequencer protocol (blocks on sequencer crash until
  the membership below installs a new view, Section 2.3.2);
* :class:`repro.abcast.token_ring.TokenRingAtomicBroadcast` — the
  RMP/Totem rotating-token protocol (blocks on token loss until the ring
  is reformed, Section 2.3.2).

All three expose ``abcast(message)`` / ``on_adeliver(callback)`` and a
``delivered_log`` so tests and benchmarks can compare them uniformly.
"""

from __future__ import annotations

from typing import Any, Callable, Protocol, runtime_checkable

from repro.net.message import MsgId


@runtime_checkable
class TaggedBroadcast(Protocol):
    """A broadcast service multiplexed by string tags.

    Satisfied by :class:`repro.broadcast.rbcast.ReliableBroadcast` and by
    the traditional view-synchrony layer, so protocols like the fixed
    sequencer can run over either (Isis runs it over view synchrony).
    """

    def bcast(self, tag: str, payload: Any) -> MsgId: ...

    def register(self, tag: str, handler: Callable[[str, Any, MsgId], None]) -> None: ...
