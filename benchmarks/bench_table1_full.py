"""T1-FULL — The complete Table 1 as one artifact.

Renders every application class of the paper's Table 1 (plus the §4.1.4
domain-switch section) in paper order, with measured event counts per
model — the single-document counterpart to the per-class benches.
"""

from __future__ import annotations

from repro.analysis import benchout
from repro.analysis.table1 import full_table1


def test_report_full_table1():
    text = full_table1()
    benchout.record("Table 1 — complete, measured, in paper order", text)
    # One section per application class (plus attach/detach and RPC).
    for marker in (
        "Attach/Detach Segment",
        "Concurrent Garbage Collection",
        "Distributed VM",
        "Transactional VM",
        "Concurrent Checkpoint",
        "Compression Paging",
        "Domain switches under RPC",
    ):
        assert marker in text
    # Every section reports all three models.
    assert text.count("weighted cycles") >= 7
