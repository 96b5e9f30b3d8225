"""T1-TXN — Table 1 rows 8-10: Transactional VM.

Paper prediction: a lock grant is one PLB-entry update on the
domain-page model; on the page-group model it either moves the page to
the domain's private lock group (alternating on shared read locks) or
to a per-page group (filling the group cache).  Both page-group
strategies are run.
"""

from __future__ import annotations

import dataclasses

from repro.analysis import benchout
from repro.analysis.report import format_table, ratio
from repro.analysis.table1 import run_txn
from repro.os.kernel import MODELS
from repro.workloads.txn import TxnConfig

CONFIG = TxnConfig(
    db_pages=48, transactions=12, touches_per_txn=20, concurrent=2,
    write_fraction=0.3, zipf_s=1.0, seed=11,
)


def test_report_table1_txn():
    domain_result = run_txn(CONFIG, models=MODELS)
    page_result = run_txn(
        dataclasses.replace(CONFIG, lock_strategy="page"), models=("pagegroup",)
    )
    rows = []
    sources = [("pagegroup/domain-groups", domain_result, "pagegroup"),
               ("pagegroup/page-groups", page_result, "pagegroup"),
               ("plb", domain_result, "plb"),
               ("conventional", domain_result, "conventional")]
    for label, result, model in sources:
        stats = result.stats_by_model[model]
        summary = result.summary_by_model[model]
        assert summary["commits"] == CONFIG.transactions
        locks = summary["read_locks"] + summary["write_locks"]
        rows.append(
            [
                label,
                locks,
                summary["group_alternations"],
                round(ratio(stats["plb.update"], locks), 2),
                round(ratio(stats["pgtlb.update"], locks), 2),
                stats["group_reload"],
                stats["pgcache.fill"],
            ]
        )
    benchout.record(
        "Table 1 rows 8-10: Transactional VM (both lock strategies)",
        domain_result.render()
        + "\n\n"
        + format_table(
            [
                "configuration",
                "locks granted",
                "group alternations",
                "PLB updates / lock",
                "TLB updates / lock",
                "group reload traps",
                "group-cache fills",
            ],
            rows,
            title="Lock representation costs (§4.1.2's two strategies)",
        ),
    )
    # Direction check: the page-per-group strategy avoids alternation...
    assert page_result.summary_by_model["pagegroup"]["group_alternations"] == 0
