"""Unit tests for hotspot aggregation and the tracer's span sink."""

from __future__ import annotations

from repro.core.costs import DEFAULT_COSTS
from repro.obs.live import LiveCollector
from repro.obs.metrics import attributed_cycles, hotspots
from repro.obs.tracer import Tracer
from repro.sim.stats import Stats


class TestMetricsRegistry:
    def test_tracer_feeds_span_histograms(self):
        """The tracer's ``metrics=`` sink (serve's LiveCollector) takes
        one observation per recorded span, priced at span exit."""
        stats = Stats()
        collector = LiveCollector("plb")
        tracer = Tracer(stats, metrics=collector)
        for _ in range(5):
            with tracer.span("kernel.detach"):
                stats.inc("kernel.trap")
        tracer.finish()
        sketch = collector.slo_summary(1000)["latency_cycles_per_verb"]["kernel.detach"]
        assert sketch["count"] == 5
        assert sketch["total"] == 5 * DEFAULT_COSTS.weight_for("kernel.trap")


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
