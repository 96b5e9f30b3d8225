"""S4.1.4 — Domain-switch cost under RPC.

Paper prediction: "A protection domain switch on a PLB-based system
requires changing only a single register ... Domain switching on the
page-group implementation involves purging the active page-group cache
and loading in the page-groups for the new domain."  An untagged
conventional system is worst: it purges the whole TLB (and a virtually
tagged cache).  The bench sweeps the number of page-groups in each
domain's working set, which scales the page-group model's reload bill
but leaves the PLB switch at one register write.
"""

from __future__ import annotations

from repro.analysis import benchout
from repro.analysis.report import format_table, ratio
from repro.core.costs import cycles_for
from repro.os.kernel import Kernel
from repro.workloads.rpc import RPCConfig, RPCWorkload

SWEEP = [2, 4, 8]


def run_rpc(model: str, private_segments: int, **system_options):
    config = RPCConfig(calls=60, arg_pages=2, private_segments=private_segments,
                       private_pages=2)
    kernel = Kernel(model, system_options=system_options or None)
    return RPCWorkload(kernel, config).run()


def test_report_domain_switch():
    rows = []
    for segments in SWEEP:
        configs = [
            ("plb", run_rpc("plb", segments)),
            ("pagegroup/lazy", run_rpc("pagegroup", segments)),
            ("pagegroup/eager", run_rpc("pagegroup", segments, eager_reload=True)),
            ("conventional/tagged", run_rpc("conventional", segments)),
            ("conventional/untagged",
             run_rpc("conventional", segments, asid_tagged=False)),
        ]
        for label, report in configs:
            assert report.calls == 60
            switches = report.switches
            stats = report.stats
            rows.append(
                [
                    f"{segments} groups",
                    label,
                    switches,
                    round(ratio(stats["pdid.write"], switches), 2),
                    round(ratio(stats["group_reload"]
                                + stats["group_eager_load"], switches), 2),
                    round(ratio(stats["pgcache.purge_removed"]
                                + stats["pid.write"], switches), 2),
                    round(ratio(stats["asidtlb.purge_removed"], switches), 2),
                    round(ratio(cycles_for(stats), switches)),
                ]
            )
    benchout.record(
        "Section 4.1.4: Domain-switch cost under RPC (sweep: groups per domain)",
        format_table(
            [
                "working set",
                "system",
                "switches",
                "registers / switch",
                "group loads / switch",
                "holder writes / switch",
                "TLB entries purged / switch",
                "weighted cycles / switch",
            ],
            rows,
            title="Per-switch hardware cost (paper: PLB = 1 register; "
            "page-group = purge + reload; untagged = purge everything)",
        ),
    )
    # Direction: page-group reload bill grows with the group working
    # set; the PLB per-switch cost stays flat at one register write.
    plb_rows = [row for row in rows if row[1] == "plb"]
    pg_rows = [row for row in rows if row[1] == "pagegroup/lazy"]
    assert all(row[3] == 1.0 for row in plb_rows)
    assert all(row[4] == 0 for row in plb_rows)
    assert pg_rows[-1][4] > pg_rows[0][4]
