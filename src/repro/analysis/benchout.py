"""Report registry for the paper-claim suite.

The benches under ``benchmarks/`` produce the paper-style tables (Table 1
rows, Figure 1/2 renditions, sweep series).  pytest captures stdout, so
each bench registers its rendered report here, and
``benchmarks/conftest.py`` prints every report in the terminal summary
under a REPRODUCTION REPORTS banner.
"""

from __future__ import annotations

_REPORTS: list[tuple[str, str]] = []


def record(title: str, text: str) -> None:
    """Register one rendered report for the end-of-run summary."""
    _REPORTS.append((title, text))


def all_reports() -> list[tuple[str, str]]:
    """Registered (title, text) pairs in registration order."""
    return list(_REPORTS)


def clear() -> None:
    _REPORTS.clear()
