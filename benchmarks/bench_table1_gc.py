"""T1-GC — Table 1 rows 3-4: Concurrent Garbage Collection.

Paper prediction: the flip is a PLB sweep (mark from-space no-access)
versus a pair of page-group cache operations; scanning a page is one
per-domain PLB update versus one page-to-group move.
"""

from __future__ import annotations

from repro.analysis import benchout
from repro.analysis.report import format_table, ratio
from repro.analysis.table1 import run_gc
from repro.workloads.gc import GCConfig

CONFIG = GCConfig(heap_pages=48, collections=3, mutator_refs_per_cycle=1_200, seed=42)


def test_report_table1_gc():
    result = run_gc(CONFIG)
    rows = []
    for model, stats in result.stats_by_model.items():
        summary = result.summary_by_model[model]
        assert summary["collections"] == CONFIG.collections
        scans = summary["pages_scanned"]
        assert scans == summary["scan_faults"]
        rows.append(
            [
                model,
                summary["collections"],
                scans,
                round(ratio(stats["plb.sweep_inspected"], CONFIG.collections), 1),
                round(ratio(stats["plb.update"], scans), 2),
                round(ratio(stats["pgtlb.update"], scans), 2),
                round(ratio(stats["group_reload"], CONFIG.collections), 1),
            ]
        )
    benchout.record(
        "Table 1 rows 3-4: Concurrent Garbage Collection",
        result.render()
        + "\n\n"
        + format_table(
            [
                "model",
                "GCs",
                "pages scanned",
                "PLB inspections / flip",
                "PLB updates / scan",
                "TLB updates / scan",
                "group reloads / GC",
            ],
            rows,
            title="Per-flip and per-scan costs",
        ),
    )
    summaries = list(result.summary_by_model.values())
    assert summaries[0]["pages_scanned"] == summaries[1]["pages_scanned"]
