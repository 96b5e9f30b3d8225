"""Tests for the benchmark report registry."""

from __future__ import annotations

import pytest

from repro.analysis import benchout


@pytest.fixture(autouse=True)
def clean_registry():
    benchout.clear()
    yield
    benchout.clear()


class TestRegistry:
    def test_record_and_retrieve_in_order(self):
        benchout.record("first", "body one")
        benchout.record("second", "body two")
        assert benchout.all_reports() == [
            ("first", "body one"),
            ("second", "body two"),
        ]

    def test_all_reports_returns_copy(self):
        benchout.record("a", "b")
        reports = benchout.all_reports()
        reports.append(("x", "y"))
        assert len(benchout.all_reports()) == 1

    def test_clear(self):
        benchout.record("a", "b")
        benchout.clear()
        assert benchout.all_reports() == []


class TestRegressionChecker:
    def test_check_flags_growth_and_missing_cells(self):
        import importlib.util
        from pathlib import Path

        script = (Path(__file__).resolve().parents[2]
                  / "tools" / "check_bench_regression.py")
        spec = importlib.util.spec_from_file_location("check_bench", script)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)

        baseline = {"gc": {"plb": 1000, "pagegroup": 2000},
                    "txn": {"plb": 500}}
        current = {"gc": {"plb": 1101, "pagegroup": 2100}}  # +10.1%, +5%
        failures = module.check(current, baseline)
        assert len(failures) == 2
        assert any("gc / plb" in line and "+10.1%" in line for line in failures)
        assert any("txn / plb" in line and "missing" in line for line in failures)
        # Exactly at threshold or improving never fails.
        assert module.check(
            {"gc": {"plb": 1100, "pagegroup": 1}, "txn": {"plb": 500}}, baseline
        ) == []
