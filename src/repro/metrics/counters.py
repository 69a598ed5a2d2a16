"""Named integer counters for protocol instrumentation."""

from __future__ import annotations


class Cell:
    """One counter's value, added to in place: ``cell.n += amount``.

    An unbumped cell holds ``False``, which sums as 0: the first add of
    any amount, 0 included, makes ``n`` an ``int`` and the counter
    visible — so a counter exists from its first increment on, without
    a check on the increment.
    """

    __slots__ = ("n",)

    def __init__(self) -> None:
        self.n = False


class Counters:
    """A bag of named monotonically increasing counters.

    Every counter is a :class:`Cell`.  Hot paths resolve their cells once
    (:meth:`cell`, at construction or on the first use of a dynamic name)
    and add to them inline; :meth:`inc` is the cold-path spelling of the
    same add, so a name bumped both ways is one counter.  A cell nobody
    has bumped is invisible to every read.  Reads list counters in name
    order, whatever the order they were made, bumped or read in.
    """

    def __init__(self) -> None:
        self._cells: dict[str, Cell] = {}

    def cell(self, name: str) -> Cell:
        """The cell of ``name``, made on first use; it stays valid across
        :meth:`clear`."""
        cell = self._cells.get(name)
        if cell is None:
            cell = self._cells[name] = Cell()
        return cell

    def inc(self, name: str, amount: int = 1) -> None:
        try:
            self._cells[name].n += amount
        except KeyError:
            self.cell(name).n += amount

    def get(self, name: str) -> int:
        cell = self._cells.get(name)
        return 0 if cell is None else cell.n or 0

    def snapshot(self) -> dict[str, int]:
        return {
            name: cell.n for name, cell in sorted(self._cells.items()) if cell.n is not False
        }

    def by_prefix(self, prefix: str) -> dict[str, int]:
        """All counters under ``prefix``, keyed by the remaining suffix.

        ``by_prefix("net.sent.")`` returns e.g. ``{"abcast": 48, "fd": 120}``
        — the per-layer breakdown the benchmarks report.
        """
        return {
            name[len(prefix):]: value
            for name, value in self.snapshot().items()
            if name.startswith(prefix)
        }

    def total(self, prefix: str) -> int:
        """Sum of all counters under ``prefix``."""
        return sum(self.by_prefix(prefix).values())

    def clear(self) -> None:
        """Zero every counter; cells held by components stay valid."""
        for cell in self._cells.values():
            cell.n = False

    def __getitem__(self, name: str) -> int:
        return self.get(name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        items = ", ".join(f"{k}={v}" for k, v in self.snapshot().items())
        return f"Counters({items})"
