"""Unit tests for histograms and hotspot aggregation."""

from __future__ import annotations

import pytest

from repro.obs.metrics import (
    Histogram,
    Metrics,
    attributed_cycles,
    hotspots,
)
from repro.obs.tracer import Tracer
from repro.sim.stats import Stats


class TestHistogram:
    def test_power_of_two_buckets(self):
        h = Histogram()
        for value in (0, 1, 2, 3, 4, 7, 8, 1000):
            h.add(value)
        assert h.count == 8
        assert h.min == 0 and h.max == 1000
        assert h.total == 1025
        rows = dict(((low, high), count) for low, high, count in h.buckets())
        assert rows[(0, 1)] == 1      # the zero
        assert rows[(1, 2)] == 1      # 1
        assert rows[(2, 4)] == 2      # 2, 3
        assert rows[(4, 8)] == 2      # 4, 7
        assert rows[(8, 16)] == 1     # 8
        assert rows[(512, 1024)] == 1  # 1000

    def test_mean_and_percentile(self):
        h = Histogram()
        for value in (1, 1, 1, 1000):
            h.add(value)
        assert h.mean == pytest.approx(250.75)
        assert h.percentile(0.5) == 1
        # Interpolated within the tail bucket and clamped to the observed
        # max — not the bucket's upper bound (1023).
        assert h.percentile(1.0) == 1000

    def test_percentile_interpolates_within_bucket(self):
        # 100 values spread across the [64, 128) bucket: the old
        # upper-bound behavior returned 127 for *every* quantile that
        # landed here; interpolation walks through the bucket by rank.
        h = Histogram()
        for value in range(64, 128):
            h.add(value)
        p50 = h.percentile(0.5)
        p99 = h.percentile(0.99)
        assert 64 <= p50 < p99 <= 127
        assert p50 == 96  # halfway through [64, 128)
        # Quantiles never escape the observed range.
        assert h.percentile(0.01) >= h.min
        assert h.percentile(1.0) <= h.max

    def test_percentile_fix_keeps_as_dict_shape(self):
        # The as_dict() contract is unchanged by the percentile fix.
        h = Histogram()
        for value in (1, 1, 1, 1000):
            h.add(value)
        data = h.as_dict()
        assert sorted(data) == ["buckets", "count", "max", "mean", "min", "total"]
        assert data["buckets"] == [[1, 2, 3], [512, 1024, 1]]
        assert data["count"] == 4 and data["max"] == 1000

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            Histogram().add(-1)

    def test_as_dict_is_json_shaped(self):
        h = Histogram()
        h.add(5)
        data = h.as_dict()
        assert data["count"] == 1
        assert data["buckets"] == [[4, 8, 1]]


class TestMetricsRegistry:
    def test_tracer_feeds_span_histograms(self):
        stats = Stats()
        metrics = Metrics(stats)
        tracer = Tracer(stats, metrics=metrics)
        for _ in range(5):
            with tracer.span("kernel.detach"):
                stats.inc("kernel.trap")
        tracer.finish()
        h = metrics.histograms["kernel.detach"]
        assert h.count == 5
        assert metrics.counter("kernel.trap") == 5
        assert "histograms" in metrics.as_dict()


class TestHotspots:
    def test_exclusive_cycles_partition_the_total(self):
        stats = Stats()
        tracer = Tracer(stats)
        with tracer.span("run"):
            stats.inc("kernel.trap", 2)
            for _ in range(3):
                with tracer.span("verb"):
                    stats.inc("plb.fill", 4)
        spans = tracer.finish()
        rows = hotspots(spans)
        assert sum(row.exclusive_cycles for row in rows) == attributed_cycles(spans)
        by_name = {row.name: row for row in rows}
        assert by_name["verb"].count == 3
        assert by_name["run"].count == 1
        assert by_name["run"].inclusive_cycles == spans[0].cycles

    def test_ranked_by_exclusive_cycles(self):
        stats = Stats()
        tracer = Tracer(stats)
        with tracer.span("cheap"):
            stats.inc("dcache.hit", 1)
        with tracer.span("dear"):
            stats.inc("kernel.trap", 50)
        rows = hotspots(tracer.finish())
        assert [row.name for row in rows] == ["dear", "cheap"]
