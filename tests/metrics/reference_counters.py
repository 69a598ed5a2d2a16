"""The counter bag as it was before counters became cells: ``Counters``
copied verbatim from ``repro.metrics.counters``, handles included.

``test_counters_reference.py`` drives this and the cell-backed class
with the same operations and requires the same values and key sets.
Nothing here is imported by the program.
"""

from __future__ import annotations

from typing import Callable


class Counters:
    """A bag of named monotonically increasing counters.

    A counter exists from its first increment on, in the order of first
    increments; the backing mapping is a plain ``dict`` (a ``Counter``
    subclass takes the interpreter's slow path on every item access).
    """

    def __init__(self) -> None:
        self._values: dict[str, int] = {}

    def inc(self, name: str, amount: int = 1) -> None:
        values = self._values
        try:
            values[name] += amount
        except KeyError:
            values[name] = amount

    def handle(self, *names: str) -> Callable[..., None]:
        """A pre-resolved increment callable for one or more counters.

        Hot paths (one increment per simulated datagram) pay for an
        f-string format plus a method lookup on every ``inc`` call; a
        handle resolves the names once, so a bump is one closure call
        plus one dict update per counter.  A handle of one name takes
        ``amount`` (default 1).  A handle of several takes one amount per
        name and updates them in the order named: the transport's six
        counters of a datagram are one call.  Handles stay valid across
        :meth:`clear` — the backing mapping is cleared in place.
        """
        values = self._values
        if len(names) == 1:
            (name,) = names

            def bump(amount: int = 1) -> None:
                try:
                    values[name] += amount
                except KeyError:
                    values[name] = amount

            return bump

        def bump_each(*amounts: int) -> None:
            # An index, not ``zip``: this runs once per datagram, and the
            # iterator pair costs more than the six updates it feeds.
            i = 0
            for name in names:
                try:
                    values[name] += amounts[i]
                except KeyError:
                    values[name] = amounts[i]
                i += 1

        return bump_each

    def get(self, name: str) -> int:
        return self._values.get(name, 0)

    def snapshot(self) -> dict[str, int]:
        return dict(self._values)

    def by_prefix(self, prefix: str) -> dict[str, int]:
        """All counters under ``prefix``, keyed by the remaining suffix.

        ``by_prefix("net.sent.")`` returns e.g. ``{"fd": 120, "abcast": 48}``
        — the per-layer breakdown the benchmarks report.
        """
        return {
            name[len(prefix):]: value
            for name, value in self._values.items()
            if name.startswith(prefix)
        }

    def total(self, prefix: str) -> int:
        """Sum of all counters under ``prefix``."""
        return sum(self.by_prefix(prefix).values())

    def clear(self) -> None:
        self._values.clear()

    def __getitem__(self, name: str) -> int:
        return self.get(name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        items = ", ".join(f"{k}={v}" for k, v in sorted(self._values.items()))
        return f"Counters({items})"
