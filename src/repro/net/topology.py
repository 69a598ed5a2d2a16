"""Link models and network partitions.

The paper's system model is an asynchronous network with unpredictable
delays, message loss (below the reliable channel) and possible
partitions.  :class:`LinkModel` parameterises one directed link;
:class:`PartitionState` tracks which network components can currently
exchange messages (used by the Phoenix scenario of Section 2.1.2 and by
partition tests).
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class LinkModel:
    """Stochastic behaviour of one directed link.

    delay_min / delay_jitter : uniform delivery delay in [min, min+jitter] ms
    drop_prob                : probability a message is silently lost
    dup_prob                 : probability a message is delivered twice
    bytes_per_ms             : optional bandwidth term — a datagram's
                               transit delay grows by ``size / bytes_per_ms``
                               (size from ``repro.net.wire.wire_size``).
                               ``None`` (the default) keeps delay
                               size-independent, so same-seed fingerprints
                               are unchanged unless a scenario opts in:
                               the term draws no randomness.
    """

    delay_min: float = 1.0
    delay_jitter: float = 1.0
    drop_prob: float = 0.0
    dup_prob: float = 0.0
    bytes_per_ms: float | None = None

    # The draws one at a time.  The transport does not call these: its
    # ``UnreliableTransport.send`` makes the same draws inline and is the
    # authority on their order; they stay for link-level tests.

    def sample_delay(self, rng: random.Random) -> float:
        if self.delay_jitter <= 0:
            return self.delay_min
        return self.delay_min + rng.random() * self.delay_jitter

    def transmit_ms(self, size: int) -> float:
        """Size-dependent serialisation delay (0.0 with no bandwidth set)."""
        if self.bytes_per_ms is None:
            return 0.0
        return size / self.bytes_per_ms

    def drops(self, rng: random.Random) -> bool:
        return self.drop_prob > 0 and rng.random() < self.drop_prob

    def duplicates(self, rng: random.Random) -> bool:
        return self.dup_prob > 0 and rng.random() < self.dup_prob


#: Loss-free, low-jitter LAN-like link — the common default for benches.
LAN = LinkModel(delay_min=1.0, delay_jitter=1.0, drop_prob=0.0, dup_prob=0.0)


class PartitionState:
    """Tracks the current partitioning of processes into components.

    With no partition installed every pair communicates.  ``split``
    installs a partition given as an iterable of process groups; any
    process not mentioned forms its own singleton component.

    ``cut`` severs one *directed* link — the one-way failure no set of
    components can express — until ``mend``; cuts and partitions are
    independent of each other (``heal`` mends nothing).
    """

    def __init__(self) -> None:
        self._component_of: dict[str, int] | None = None
        self._cuts: set[tuple[str, str]] = set()

    def split(self, groups: list[list[str]]) -> None:
        mapping: dict[str, int] = {}
        for index, group in enumerate(groups):
            for pid in group:
                if pid in mapping:
                    raise ValueError(f"{pid} appears in more than one partition group")
                mapping[pid] = index
        self._component_of = mapping

    def heal(self) -> None:
        self._component_of = None

    def cut(self, src: str, dst: str) -> None:
        """Drop everything ``src`` sends ``dst``; the way back stays open."""
        self._cuts.add((src, dst))

    def mend(self, src: str, dst: str) -> None:
        self._cuts.discard((src, dst))

    @property
    def partitioned(self) -> bool:
        return self._component_of is not None

    def connected(self, a: str, b: str) -> bool:
        """Whether a datagram from ``a`` reaches ``b``."""
        if self._cuts and (a, b) in self._cuts:
            return False
        if self._component_of is None:
            return True
        ca = self._component_of.get(a)
        cb = self._component_of.get(b)
        if ca is None or cb is None:
            # Unlisted processes are isolated in their own component.
            return a == b
        return ca == cb
