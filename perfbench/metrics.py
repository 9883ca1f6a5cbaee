"""Pure arithmetic of the benchmark: percentiles, failure share, span self time.

Nothing here imports numpy or pmrsim, so the rules can be tested on synthetic
samples and spans alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

# Percentile levels tried for the tail, highest first.  The tail is the highest
# level with at least TAIL_BEYOND samples above it; below that it is the median.
TAIL_LEVELS = ("99.99", "99.9", "99", "95", "90", "75", "50")
TAIL_BEYOND = 10


def nearest_rank(sorted_values: list[float], level: str) -> tuple[float, int]:
    """Nearest-rank percentile of sorted samples and the count of samples beyond it.

    ``level`` is a decimal string such as "99.9"; it is read exactly, so the
    rank never suffers from binary rounding.
    """
    n = len(sorted_values)
    if n == 0:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(Fraction(level) * n / 100))
    return sorted_values[rank - 1], n - rank


@dataclass(frozen=True)
class Tail:
    """The tail percentile: its value, level and the samples beyond it."""

    value: float
    level: str
    beyond: int
    samples: int


def tail(values: list[float]) -> Tail:
    """Highest percentile in TAIL_LEVELS with at least TAIL_BEYOND samples beyond.

    With too few samples for any level the median is returned, so the tail is
    never read from a handful of outliers.
    """
    ordered = sorted(values)
    for level in TAIL_LEVELS:
        value, beyond = nearest_rank(ordered, level)
        if beyond >= TAIL_BEYOND:
            return Tail(value, level, beyond, len(ordered))
    value, beyond = nearest_rank(ordered, "50")
    return Tail(value, "50", beyond, len(ordered))


def fail_frac(failed: int, attempted: int) -> float:
    """Failed ops as a share of attempted ops."""
    if attempted < 1 or not 0 <= failed <= attempted:
        raise ValueError(f"bad counts: {failed} failed of {attempted} attempted")
    return failed / attempted


@dataclass
class Span:
    """One call across a layer boundary.

    ``parent`` is the index of the enclosing span in the same list, or -1;
    ``op`` is the op id, or -1 for set-up.  ``count`` is an optional work
    count taken from the call's arguments.
    """

    name: str
    start: float
    end: float
    parent: int
    op: int
    count: int = 0


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [
        (s.end - s.start) - covered(kids, s.start, s.end)
        for s, kids in zip(spans, children)
    ]


@dataclass
class LayerTotals:
    """Sums over the spans of one name."""

    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0
    count: int = 0


def layer_totals(spans: list[Span], ops: set[int]) -> dict[str, LayerTotals]:
    """Calls, time, self time and work counts per span name over the given ops.

    A span nested inside another of the same name adds its calls and self
    time but not its duration, so recursion is not counted twice.
    """
    selfs = self_times(spans)
    totals: dict[str, LayerTotals] = {}
    for i, s in enumerate(spans):
        if s.op not in ops:
            continue
        t = totals.setdefault(s.name, LayerTotals())
        t.calls += 1
        t.self_seconds += selfs[i]
        t.count += s.count
        p = s.parent
        while p >= 0 and spans[p].name != s.name:
            p = spans[p].parent
        if p < 0:
            t.seconds += s.end - s.start
    return totals
