"""Benchmark-suite plumbing: print registered reports after the run.

Set ``REPRO_BENCH_REPORT=<path>`` to also dump the structured RunReport
JSON for offline analysis.  ``tools/check_bench_regression.py`` does not
read it: each of its guards measures its own cells.
"""

from __future__ import annotations

import os

from repro.analysis import benchout


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    reports = benchout.all_reports()
    if not reports:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("=" * 78)
    terminalreporter.write_line("REPRODUCTION REPORTS (paper artifact -> measured)")
    terminalreporter.write_line("=" * 78)
    for title, text in reports:
        terminalreporter.write_line("")
        terminalreporter.write_line(f"--- {title} ---")
        for line in text.splitlines():
            terminalreporter.write_line(line)
    out = os.environ.get("REPRO_BENCH_REPORT")
    if out:
        count = benchout.write_run_reports(out)
        terminalreporter.write_line("")
        terminalreporter.write_line(f"wrote {count} structured run reports -> {out}")
