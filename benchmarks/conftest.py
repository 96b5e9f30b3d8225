"""Paper-claim suite plumbing: print the registered reports after the run.

Each bench records its artifact with ``benchout.record``; this hook
prints them all, in registration order, under one REPRODUCTION REPORTS
banner in pytest's terminal summary.
"""

from __future__ import annotations

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
