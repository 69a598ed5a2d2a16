"""Latency samples and summary statistics."""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class LatencyStats:
    """Summary of a set of latency samples (milliseconds)."""

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    minimum: float
    maximum: float

    @staticmethod
    def empty() -> "LatencyStats":
        return LatencyStats(0, math.nan, math.nan, math.nan, math.nan, math.nan, math.nan)

    def __str__(self) -> str:
        if self.count == 0:
            return "n=0"
        return (
            f"n={self.count} mean={self.mean:.2f}ms p50={self.p50:.2f}ms "
            f"p95={self.p95:.2f}ms p99={self.p99:.2f}ms max={self.maximum:.2f}ms"
        )


def percentile(sorted_samples: list[float], fraction: float) -> float:
    """Linearly interpolated percentile of pre-sorted samples.

    Uses the inclusive (``numpy`` default) definition: the percentile at
    fraction ``q`` lies at rank ``q * (n - 1)`` and is interpolated
    between the two surrounding samples.  Unlike the nearest-rank rule
    this behaves at the edges — fraction 0.0 is the minimum, 1.0 the
    maximum — and a p95/p99 over a handful of samples no longer silently
    collapses onto the maximum.
    """
    if not sorted_samples:
        return math.nan
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    n = len(sorted_samples)
    if n == 1:
        return sorted_samples[0]
    rank = fraction * (n - 1)
    lower = math.floor(rank)
    upper = min(lower + 1, n - 1)
    weight = rank - lower
    lo, hi = sorted_samples[lower], sorted_samples[upper]
    if weight == 0.0 or lo == hi:
        return lo
    # ``lo + w*(hi-lo)`` (not the two-product form, which underflows to
    # 0.0 on subnormal samples), clamped so float rounding can never push
    # the result outside [lo, hi].
    return min(max(lo + weight * (hi - lo), lo), hi)


class LatencyRecorder:
    """Collects latency samples grouped by a string tag.

    A tag's samples are an ``array('d')``: each is the IEEE double it
    was recorded as, in 8 bytes instead of a boxed float.
    """

    def __init__(self) -> None:
        self._samples: dict[str, array] = {}
        self._open: dict[tuple[str, object], float] = {}
        #: Per-tag cache of the sorted sample view: stats() used to
        #: re-sort the full list on every call, which is quadratic when
        #: polled between slices of a run.  Invalidated on record.
        self._sorted_cache: dict[str, list[float]] = {}

    def record(self, tag: str, value: float) -> None:
        samples = self._samples.get(tag)
        if samples is None:
            samples = self._samples[tag] = array("d")
        samples.append(value)
        self._sorted_cache.pop(tag, None)

    def begin(self, tag: str, key: object, at: float) -> None:
        """Open an interval identified by ``(tag, key)``."""
        self._open[(tag, key)] = at

    def end(self, tag: str, key: object, at: float) -> bool:
        """Close an interval and record its duration.

        Returns False (and records nothing) if the interval was never
        opened — e.g. the sample's start was on a crashed process.
        """
        started = self._open.pop((tag, key), None)
        if started is None:
            return False
        self.record(tag, at - started)
        return True

    # ------------------------------------------------------------------
    # Interval hygiene (soak/crash runs must not leak open intervals)
    # ------------------------------------------------------------------
    def abandon_if(self, predicate: Callable[[str, object], bool]) -> int:
        """Drop, without recording a sample, every open interval for
        which ``predicate(tag, key)`` holds — intervals whose end will
        never come (the message was dropped, or its originator crashed
        before the broadcast got out); returns how many were dropped."""
        doomed = [tk for tk in self._open if predicate(*tk)]
        for tk in doomed:
            del self._open[tk]
        return len(doomed)

    def abandon_owner(self, pid: str) -> int:
        """Abandon open intervals whose key is a tuple that starts with
        ``pid``: a message id it minted (its first field is the sender),
        a request it issued, a view change it was blocked in.

        Called from :meth:`repro.sim.process.Process.crash`: intervals
        opened for the crashed process's own messages can only be closed
        if the message still gets relayed; most never will, its other
        intervals never will, and in soak runs with repeated crashes they
        accumulate without bound.
        """

        def owned(_tag: str, key: object) -> bool:
            return isinstance(key, tuple) and key[:1] == (pid,)

        return self.abandon_if(owned)

    def open_intervals(self, tag: str | None = None) -> int:
        """Gauge: number of currently open intervals (optionally one tag)."""
        if tag is None:
            return len(self._open)
        return sum(1 for t, _ in self._open if t == tag)

    # ------------------------------------------------------------------
    # Read-out
    # ------------------------------------------------------------------
    def samples(self, tag: str) -> list[float]:
        return list(self._samples.get(tag, []))

    def tags(self) -> list[str]:
        return sorted(self._samples)

    def stats(self, tag: str) -> LatencyStats:
        samples = self._sorted_cache.get(tag)
        if samples is None:
            samples = self._sorted_cache[tag] = sorted(self._samples.get(tag, []))
        if not samples:
            return LatencyStats.empty()
        return LatencyStats(
            count=len(samples),
            mean=sum(samples) / len(samples),
            p50=percentile(samples, 0.50),
            p95=percentile(samples, 0.95),
            p99=percentile(samples, 0.99),
            minimum=samples[0],
            maximum=samples[-1],
        )

    def clear(self) -> None:
        self._samples.clear()
        self._open.clear()
        self._sorted_cache.clear()
