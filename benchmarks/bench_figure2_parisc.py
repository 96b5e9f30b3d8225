"""FIG2 — Figure 2: the PA-RISC protection check.

Renders the implemented AID/PID/write-disable check over the figure's
full decision space.  That every scenario matches the figure is asserted
in ``tests/integration/test_paper_claims.py``.
"""

from __future__ import annotations

from repro.analysis import benchout
from repro.analysis.figures import render_figure2


def test_figure2_truth_table():
    benchout.record("Figure 2: PA-RISC protection check truth table", render_figure2())
