"""Metrics over traced runs: histograms and hotspots.

Monotonic counters already live in :class:`~repro.sim.stats.Stats`; this
module adds the aggregate shape the flat multiset cannot express:
:class:`Histogram`, power-of-two-bucketed distributions used for
per-span cycle costs (how expensive is one ``kernel.detach``, and how
heavy is the tail?).

:func:`hotspots` aggregates recorded spans by name into the table the
``python -m repro profile`` command prints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.sim.stats import Stats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.tracer import Span


# --------------------------------------------------------------------- #
# Histograms


class Histogram:
    """A power-of-two-bucketed distribution of non-negative integers.

    Bucket ``i`` counts values in ``[2**(i-1), 2**i)`` (bucket 0 counts
    exact zeros), which keeps memory constant while preserving the
    orders-of-magnitude shape that cycle costs actually have.
    """

    def __init__(self) -> None:
        self.count = 0
        self.total = 0
        self.min: int | None = None
        self.max: int | None = None
        self._buckets: dict[int, int] = {}

    @staticmethod
    def bucket_of(value: int) -> int:
        return value.bit_length() if value > 0 else 0

    def add(self, value: int) -> None:
        if value < 0:
            raise ValueError("histograms take non-negative values")
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        bucket = self.bucket_of(value)
        self._buckets[bucket] = self._buckets.get(bucket, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def buckets(self) -> list[tuple[int, int, int]]:
        """``(low, high, count)`` rows for every non-empty bucket."""
        rows = []
        for bucket in sorted(self._buckets):
            low = 0 if bucket == 0 else 1 << (bucket - 1)
            high = 1 if bucket == 0 else 1 << bucket
            rows.append((low, high, self._buckets[bucket]))
        return rows

    def percentile(self, fraction: float) -> int:
        """Quantile estimate, linearly interpolated inside the winning bucket.

        Coarse power-of-two buckets would overstate tail quantiles if the
        bucket's upper bound were returned outright; instead the estimate
        walks ``fraction`` of the way through the bucket's width by rank,
        clamped to the observed ``min``/``max`` so no reported percentile
        lies outside the data.
        """
        if not 0 < fraction <= 1:
            raise ValueError("fraction must be in (0, 1]")
        if not self.count:
            return 0
        needed = fraction * self.count
        seen = 0
        for low, high, count in self.buckets():
            if seen + count >= needed:
                within = (needed - seen) / count
                estimate = low + int(within * (high - low))
                if self.max is not None:
                    estimate = min(estimate, self.max)
                if self.min is not None:
                    estimate = max(estimate, self.min)
                return estimate
            seen += count
        return self.max or 0

    def as_dict(self) -> dict[str, object]:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": round(self.mean, 2),
            "buckets": [list(row) for row in self.buckets()],
        }


# --------------------------------------------------------------------- #
# The metrics registry


class Metrics:
    """Per-span histograms.

    The tracer feeds ``observe_span`` once per recorded span; counters
    stay in the shared Stats object and are merely re-exported here so
    exporters have one façade over both shapes.
    """

    def __init__(self, stats: Stats) -> None:
        self.stats = stats
        self.histograms: dict[str, Histogram] = {}

    def histogram(self, name: str) -> Histogram:
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram()
        return histogram

    def counter(self, name: str) -> int:
        """Re-export of the underlying monotonic counter."""
        return self.stats[name]

    def observe_span(self, span: "Span") -> None:
        self.histogram(span.name).add(span.cycles)

    def as_dict(self) -> dict[str, object]:
        return {
            "histograms": {
                name: histogram.as_dict()
                for name, histogram in sorted(self.histograms.items())
            }
        }


# --------------------------------------------------------------------- #
# Hotspot aggregation (the `profile` command)


@dataclass
class HotspotRow:
    """One span name's aggregate over a traced run."""

    name: str
    count: int = 0
    inclusive_cycles: int = 0
    exclusive_cycles: int = 0


def hotspots(spans: Iterable["Span"]) -> list[HotspotRow]:
    """Aggregate spans by name, ranked by exclusive cycles.

    The exclusive cycles across all rows partition the traced total: a
    run wrapped in one root span yields rows whose exclusive sum equals
    the root's inclusive cycles exactly.
    """
    rows: dict[str, HotspotRow] = {}
    for root in spans:
        for span in root.walk():
            row = rows.get(span.name)
            if row is None:
                row = rows[span.name] = HotspotRow(span.name)
            row.count += 1
            row.inclusive_cycles += span.cycles
            row.exclusive_cycles += span.exclusive_cycles
    return sorted(rows.values(), key=lambda row: (-row.exclusive_cycles, row.name))


def attributed_cycles(spans: Iterable["Span"]) -> int:
    """Total cycles attributed to a forest of top-level spans."""
    return sum(span.cycles for span in spans)
