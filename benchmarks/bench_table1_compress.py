"""T1-COMPRESS — Table 1 rows 13-14: Compression Paging.

Paper prediction: page-out marks the page inaccessible in the PLB (one
update per sharing domain) versus one page-to-server-group TLB update;
page-in restores access symmetrically.  Compression itself (the Appel &
Li trade) is identical for both.
"""

from __future__ import annotations

from repro.analysis import benchout
from repro.analysis.report import format_table, ratio
from repro.analysis.table1 import run_compression
from repro.workloads.compression import CompressionConfig

CONFIG = CompressionConfig(
    segment_pages=64, resident_budget=24, refs=2_500, zipf_s=0.9, seed=5
)


def test_report_table1_compress():
    result = run_compression(CONFIG)
    rows = []
    for model, stats in result.stats_by_model.items():
        summary = result.summary_by_model[model]
        assert summary["page_outs"] > 0 and summary["page_ins"] > 0
        paging_ops = summary["page_outs"] + summary["page_ins"]
        rows.append(
            [
                model,
                summary["page_outs"],
                summary["page_ins"],
                summary["compression_ratio"],
                round(ratio(stats["plb.sweep_updated"], paging_ops), 2),
                round(ratio(stats["pgtlb.update"], paging_ops), 2),
                round(ratio(stats["dcache.flush_lines"], summary["page_outs"]), 1),
                stats["disk.bytes_written"] // 1024,
            ]
        )
    benchout.record(
        "Table 1 rows 13-14: Compression Paging",
        result.render()
        + "\n\n"
        + format_table(
            [
                "model",
                "page-outs",
                "page-ins",
                "compression ratio",
                "PLB updates / op",
                "TLB updates / op",
                "cache lines flushed / page-out",
                "KB written to disk",
            ],
            rows,
            title="Paging-operation costs (cache flush is per line, §4.1.3)",
        ),
    )
    ratios = {s["compression_ratio"] for s in result.summary_by_model.values()}
    assert len(ratios) == 1
