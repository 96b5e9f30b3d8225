"""T1-DSM — Table 1 rows 5-7: Distributed VM.

Paper prediction: get-readable / get-writable / invalidate each reduce
to rights updates in the PLB versus TLB rights+group updates; the
protocol traffic itself (fetches, invalidates) is model-independent.
"""

from __future__ import annotations

from repro.analysis import benchout
from repro.analysis.report import format_table, ratio
from repro.analysis.table1 import run_dsm
from repro.os.kernel import MODELS
from repro.workloads.dsm import DSMCluster

NODES = 4
PAGES = 24


def test_report_table1_dsm():
    migratory = run_dsm(models=MODELS, nodes=NODES, pages=PAGES,
                        pattern="migratory", rounds=2, refs_per_round=250)
    producer = run_dsm(models=MODELS, nodes=NODES, pages=PAGES,
                       pattern="producer_consumer", rounds=2)
    for stats in migratory.stats_by_model.values():
        assert stats["dsm.msg.invalidate"] > 0
    for stats in producer.stats_by_model.values():
        assert stats["dsm.get_readable"] > 0
    for result in (migratory, producer):
        rows = []
        for model, stats in result.stats_by_model.items():
            coherence_ops = (
                stats["dsm.get_readable"]
                + stats["dsm.get_writable"]
                + stats["dsm.msg.invalidate"]
            )
            rows.append(
                [
                    model,
                    stats["dsm.get_readable"],
                    stats["dsm.get_writable"],
                    stats["dsm.msg.invalidate"],
                    round(ratio(stats["plb.update"] + stats["plb.sweep_updated"],
                                coherence_ops), 2),
                    round(ratio(stats["pgtlb.update"], coherence_ops), 2),
                    round(ratio(stats["asidtlb.update"], coherence_ops), 2),
                ]
            )
        benchout.record(
            f"Table 1 rows 5-7: {result.title}",
            result.render()
            + "\n\n"
            + format_table(
                [
                    "model",
                    "get_readable",
                    "get_writable",
                    "invalidates",
                    "PLB updates / op",
                    "AID-TLB updates / op",
                    "ASID-TLB updates / op",
                ],
                rows,
                title="Coherence verbs and per-op structure updates",
            ),
        )
    # The protocol traffic must be identical across models.
    fetches = {s["dsm.msg.fetch"] for s in migratory.stats_by_model.values()}
    assert len(fetches) == 1


def test_report_false_sharing():
    """§4.3's DSM complaint: page granularity manufactures sharing."""
    false_sharing = DSMCluster("plb", nodes=2, pages=8, seed=7).run_false_sharing(
        rounds=15, pages=3
    )
    split = DSMCluster("plb", nodes=2, pages=8, seed=7).run_split_pages(
        rounds=15, pages=3
    )
    rows = [
        ["disjoint halves of shared pages (false sharing)",
         false_sharing["dsm.msg.invalidate"], false_sharing["dsm.msg.fetch"],
         false_sharing["kernel.fault.protection"] + false_sharing["kernel.fault.page"]],
        ["same work on disjoint pages (control)",
         split["dsm.msg.invalidate"], split["dsm.msg.fetch"],
         split["kernel.fault.protection"] + split["kernel.fault.page"]],
    ]
    benchout.record(
        "Section 4.3: DSM false sharing at page granularity "
        "(2 nodes, 15 rounds, 3 pages)",
        format_table(
            ["pattern", "invalidates", "page fetches", "faults"],
            rows,
            title="Paper: 'large page sizes ... causing an increase in false "
            "sharing for distributed virtual memory systems'",
        ),
    )
    assert false_sharing["dsm.msg.invalidate"] > 10 * max(split["dsm.msg.invalidate"], 1)
