"""Hotspots over traced runs: the ``profile`` command's aggregation.

Monotonic counters live in :class:`~repro.sim.stats.Stats` and the
tracer attributes them to spans; :func:`hotspots` aggregates recorded
spans by name into the table ``python -m repro profile`` prints, and
:func:`attributed_cycles` totals a span forest for its footer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.tracer import Span


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
