"""T1-ATTACH — Table 1 rows 1-2: Attach Segment / Detach Segment.

Paper prediction: attach is trivial for both models; detach costs the
PLB an inspect-every-entry sweep while the page-group model just drops
one group identifier.
"""

from __future__ import annotations

from repro.analysis import benchout
from repro.analysis.report import format_table, ratio
from repro.analysis.table1 import run_attach_detach
from repro.workloads.attach import AttachConfig

CONFIG = AttachConfig(segments=24, pages_per_segment=8, touches_per_segment=16, sharers=1)


def test_report_table1_attach():
    result = run_attach_detach(CONFIG)
    per_detach = []
    detaches = CONFIG.segments * (1 + CONFIG.sharers)
    for model, stats in result.stats_by_model.items():
        assert result.summary_by_model[model]["detaches"] == detaches
        per_detach.append(
            [
                model,
                round(ratio(stats["plb.sweep_inspected"], detaches), 1),
                round(ratio(stats["pgcache.invalidate"], detaches), 2),
                round(ratio(stats["asidtlb.sweep_inspected"], detaches), 1),
            ]
        )
    benchout.record(
        "Table 1 rows 1-2: Attach/Detach Segment",
        result.render()
        + "\n\n"
        + format_table(
            [
                "model",
                "PLB entries inspected / detach",
                "group-cache drops / detach",
                "ASID-TLB entries inspected / detach",
            ],
            per_detach,
            title="Per-detach structure cost (paper: PLB sweeps, page-group is O(1))",
        ),
    )
    plb = result.stats_by_model["plb"]
    pagegroup = result.stats_by_model["pagegroup"]
    # The paper's direction: detach sweeps only on the domain-page
    # models.
    assert plb["plb.sweep_inspected"] > 0
    assert pagegroup.total("plb") == 0
    assert result.stats_by_model["conventional"]["asidtlb.sweep_inspected"] > 0
