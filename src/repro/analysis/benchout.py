"""Report registry for the benchmark harness.

Benchmark runs produce the paper-style tables (Table 1 rows, Figure 1/2
renditions, sweep series).  pytest captures stdout, so benches register
their rendered reports here and ``benchmarks/conftest.py`` prints them in
the terminal summary, where ``pytest ... | tee bench_output.txt`` records
them alongside the timing table.

Besides the human-readable text, callers may attach a machine-readable
:class:`repro.obs.export.RunReport` (or a list of them) to each entry.
``write_run_reports`` dumps every attached report as one JSON document
for offline analysis.  ``tools/check_bench_regression.py`` does not read
it: each of its guards measures its own cells.
"""

from __future__ import annotations

import json

_REPORTS: list[tuple[str, str, list]] = []


def record(title: str, text: str, *, reports=None) -> None:
    """Register one rendered report for the end-of-run summary.

    ``reports`` optionally attaches structured ``RunReport`` objects
    (one or a list) for machine-readable export.
    """
    if reports is None:
        structured = []
    elif isinstance(reports, (list, tuple)):
        structured = list(reports)
    else:
        structured = [reports]
    _REPORTS.append((title, text, structured))


def all_reports() -> list[tuple[str, str]]:
    """Registered (title, text) pairs in registration order."""
    return [(title, text) for title, text, _ in _REPORTS]


def run_reports() -> list:
    """Every structured ``RunReport`` attached so far, in order."""
    return [report for _, _, structured in _REPORTS for report in structured]


def write_run_reports(path: str) -> int:
    """Dump the structured reports as ``{"reports": [...]}`` JSON.

    Returns the number of reports written.
    """
    reports = [report.to_dict() for report in run_reports()]
    with open(path, "w") as fp:
        json.dump({"reports": reports}, fp, indent=1, sort_keys=True)
        fp.write("\n")
    return len(reports)


def clear() -> None:
    _REPORTS.clear()
