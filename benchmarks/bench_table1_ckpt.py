"""T1-CKPT — Table 1 rows 11-12: Concurrent Checkpoint.

Paper prediction: restricting access is a PLB sweep versus a pair of
group operations (write-disable + a fresh read-write group); each
checkpointed page is one PLB update versus one page-group move.
"""

from __future__ import annotations

from repro.analysis import benchout
from repro.analysis.report import format_table, ratio
from repro.analysis.table1 import run_checkpoint
from repro.workloads.checkpoint import CheckpointConfig

CONFIG = CheckpointConfig(
    segment_pages=48, checkpoints=3, refs_per_checkpoint=900, seed=23
)


def test_report_table1_ckpt():
    result = run_checkpoint(CONFIG)
    rows = []
    for model, stats in result.stats_by_model.items():
        summary = result.summary_by_model[model]
        pages = summary["pages_checkpointed"]
        assert pages == CONFIG.segment_pages * CONFIG.checkpoints
        rows.append(
            [
                model,
                summary["checkpoints"],
                pages,
                summary["cow_faults"],
                round(ratio(stats["plb.sweep_inspected"], CONFIG.checkpoints), 1),
                round(ratio(stats["plb.update"], pages), 2),
                round(ratio(stats["pgtlb.update"], pages), 2),
                stats["disk.write"],
            ]
        )
    benchout.record(
        "Table 1 rows 11-12: Concurrent Checkpoint",
        result.render()
        + "\n\n"
        + format_table(
            [
                "model",
                "checkpoints",
                "pages written",
                "COW faults",
                "PLB inspections / restrict",
                "PLB updates / page",
                "TLB updates / page",
                "disk writes",
            ],
            rows,
            title="Restrict-access and checkpoint-page costs",
        ),
    )
    disk = {s["disk.write"] for s in result.stats_by_model.values()}
    assert len(disk) == 1  # identical checkpoint work across models
