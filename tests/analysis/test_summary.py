"""Tests for the cross-workload summary module."""

from __future__ import annotations

import dataclasses

from repro.analysis.summary import (
    SummaryRow,
    counter_family_lines,
    render_summary,
    run_summary,
)
from repro.core.costs import CycleCosts
from repro.sim.stats import Stats


class TestRender:
    def rows(self):
        return [
            SummaryRow("alpha", {"plb": 100, "pagegroup": 120}),
            SummaryRow("beta", {"plb": 200, "pagegroup": 150}),
        ]

    def test_ratios_and_geomean(self):
        text = render_summary(self.rows())
        assert "1.20x" in text
        assert "0.75x" in text
        # geomean(1.2, 0.75) = sqrt(0.9) ≈ 0.95
        assert "pagegroup/plb = 0.95x" in text

    def test_workload_names_present(self):
        text = render_summary(self.rows())
        assert "alpha" in text and "beta" in text

    def test_fault_free_rows_render_without_recovery_footer(self):
        assert "fault recovery" not in render_summary(self.rows())

    def test_recovery_totals_render_when_nonzero(self):
        rows = self.rows()
        rows[0] = dataclasses.replace(
            rows[0],
            recovery={"plb": {"disk.retries": 2}, "pagegroup": {}},
        )
        rows[1] = dataclasses.replace(
            rows[1], recovery={"plb": {"disk.retries": 1, "scrub.repairs": 3}}
        )
        text = render_summary(rows)
        assert "fault recovery:" in text
        assert "disk.retries=3" in text  # summed across workloads
        assert "scrub.repairs=3" in text


class TestRecoveryCounterLines:
    def test_all_zero_means_no_lines_at_all(self):
        # Fault-free runs must keep workload/profile output
        # byte-identical to the seed.
        assert counter_family_lines({"plb": Stats()}) == []

    def test_only_nonzero_counters_named(self):
        stats = Stats()
        stats.inc("faults.injected", 4)
        stats.inc("faults.recovered", 3)
        lines = counter_family_lines({"plb": stats, "pagegroup": Stats()})
        assert lines[0] == "fault recovery:"
        assert "faults.injected=4" in lines[1]
        assert "faults.recovered=3" in lines[1]
        assert "disk.retries" not in lines[1]

    def test_each_nonzero_family_prints_in_declared_order(self):
        stats = Stats()
        stats.inc("authority.shard.mutations", 2)
        stats.inc("scrub.repairs", 1)
        lines = counter_family_lines({"plb": {"scrub.repairs": 1}, "pagegroup": stats})
        assert lines == [
            "fault recovery:",
            "  plb: scrub.repairs=1",
            "  pagegroup: scrub.repairs=1",
            "authority shards:",
            "  plb: (none)",
            "  pagegroup: authority.shard.mutations=2",
        ]


class TestRun:
    def test_runs_all_workloads_two_models(self):
        rows = run_summary(models=("plb", "pagegroup"))
        assert len(rows) == 8
        for row in rows:
            assert set(row.cycles) == {"plb", "pagegroup"}
            assert all(value > 0 for value in row.cycles.values())

    def test_custom_costs_change_totals(self):
        cheap = CycleCosts(kernel_trap=1, disk_io=1)
        rows_default = run_summary(models=("plb",))
        rows_cheap = run_summary(models=("plb",), costs=cheap)
        defaults = {row.workload: row.cycles["plb"] for row in rows_default}
        cheaps = {row.workload: row.cycles["plb"] for row in rows_cheap}
        assert all(cheaps[name] < defaults[name] for name in defaults)
