"""CAPSTONE — Cross-workload summary: who wins where.

Section 6: "it will be hard to tell which model can take best advantage
of single address space characteristics ... Many of the answers will
depend on how the systems will be used, i.e., which operations are most
common."  This bench runs every application class under all three
systems and prints the overall cycles table with geometric-mean ratios —
making the paper's 'it depends' conclusion quantitative: each model wins
somewhere.
"""

from __future__ import annotations

from repro.analysis import benchout
from repro.analysis.summary import render_summary, run_summary


def test_report_summary():
    rows = run_summary()
    benchout.record(
        "Capstone: cross-workload weighted-cycles summary",
        render_summary(rows),
    )
    # The paper's conclusion, checked: neither specialized model
    # dominates every workload.
    plb_wins = sum(
        1 for row in rows if row.cycles["plb"] <= row.cycles["pagegroup"]
    )
    pagegroup_wins = sum(
        1 for row in rows if row.cycles["pagegroup"] < row.cycles["plb"]
    )
    assert plb_wins > 0
    assert pagegroup_wins > 0
