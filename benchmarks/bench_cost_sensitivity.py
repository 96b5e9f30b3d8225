"""ABL-COSTS — Sensitivity of the model comparison to cycle weights.

The cycle-cost table (DESIGN.md §6) is configurable because absolute
early-90s latencies are uncertain.  This bench sweeps the two weights
the comparison is most sensitive to — the kernel-trap cost and the
group-reload cost — and reports where the PLB/page-group winner flips
on the switch-heavy RPC workload.  The *event counts* (what the paper
argues from) are identical in every column; only the pricing moves.
"""

from __future__ import annotations

import pytest

from repro.analysis import benchout
from repro.analysis.report import format_table
from repro.core.costs import CycleCosts, cycles_for
from repro.os.kernel import Kernel
from repro.workloads.rpc import RPCConfig, RPCWorkload

CONFIG = RPCConfig(calls=60, arg_pages=2, private_segments=5, private_pages=2)


def run_stats():
    return {
        model: RPCWorkload(Kernel(model), CONFIG).run().stats
        for model in ("plb", "pagegroup")
    }


@pytest.fixture(scope="module")
def rpc_stats():
    return run_stats()


def test_event_counts_fixed():
    stats = run_stats()
    # The counts themselves never depend on the cost table.
    assert stats["plb"]["group_reload"] == 0
    assert stats["pagegroup"]["group_reload"] > 0


def test_report_cost_sensitivity(rpc_stats):
    rows = []
    for trap in (50, 150, 300, 600):
        for reload_cost in (20, 100, 400):
            costs = CycleCosts(kernel_trap=trap, group_reload_trap=reload_cost)
            plb = cycles_for(rpc_stats["plb"], costs)
            pagegroup = cycles_for(rpc_stats["pagegroup"], costs)
            rows.append(
                [
                    trap,
                    reload_cost,
                    plb,
                    pagegroup,
                    f"{pagegroup / plb:.2f}x",
                    "plb" if plb <= pagegroup else "pagegroup",
                ]
            )
    benchout.record(
        "Ablation: cycle-weight sensitivity (RPC workload)",
        format_table(
            ["kernel trap", "group reload", "PLB cycles",
             "page-group cycles", "ratio", "cheaper"],
            rows,
            title="The RPC winner across trap/reload pricings "
            "(event counts identical; only weights vary)",
        ),
    )
    # The winner hinges on the group-reload price, not the trap price:
    # when a reload is nearly free (20 cycles, i.e. hardware-managed)
    # the page-group system's cheaper per-reference path wins; once a
    # reload costs a real kernel entry (>=100 cycles) the PLB's
    # one-register switch wins at every trap price.  This quantifies
    # the paper's §4.1.4 hedge about how the page-group cache is
    # reloaded.
    by_reload: dict[int, set[str]] = {}
    for row in rows:
        by_reload.setdefault(row[1], set()).add(row[5])
    assert by_reload[20] == {"pagegroup"}
    assert by_reload[100] == {"plb"}
    assert by_reload[400] == {"plb"}