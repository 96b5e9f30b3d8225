"""MACRO-FS — File-server macro-workload: copy vs pass-by-reference.

Section 2.1's motivation, measured end-to-end: a file server whose
clients either receive *copies* through a mailbox (the multi-AS RPC
structure) or *references* into globally addressed file segments (the
SASOS structure).  The workload simultaneously exercises the Table 1
verbs — per-request domain switches, server-side attach/detach churn,
and each model's protection refills — so it doubles as the combined
"everything at once" scenario.
"""

from __future__ import annotations

import dataclasses

from repro.analysis import benchout
from repro.analysis.report import format_table, ratio
from repro.core.costs import cycles_for
from repro.os.kernel import MODELS, Kernel
from repro.workloads.fileserver import FileServer, FileServerConfig

CONFIG = FileServerConfig(
    files=16, file_pages=4, clients=3, requests=90,
    lines_per_request=32, active_files=5, zipf_s=1.0, seed=29,
)


def test_report_fileserver():
    rows = []
    for mode in ("copy", "share"):
        config = dataclasses.replace(CONFIG, mode=mode)
        for model in MODELS:
            report = FileServer(Kernel(model), config).run()
            assert report.requests == CONFIG.requests
            stats = report.stats
            rows.append(
                [
                    mode,
                    model,
                    report.requests,
                    stats["refs"],
                    report.attaches + report.client_attaches,
                    report.detaches,
                    stats["domain_switch"],
                    round(ratio(cycles_for(stats), report.requests)),
                ]
            )
    benchout.record(
        "Macro-workload: file server, copy vs pass-by-reference (§2.1)",
        format_table(
            [
                "mode",
                "model",
                "requests",
                "memory refs",
                "attaches",
                "detaches",
                "domain switches",
                "weighted cycles / request",
            ],
            rows,
            title="The SASOS structure (share) replaces data copying with "
            "one-time attaches; all Table 1 verbs run together",
        ),
    )
    copy_refs = {row[3] for row in rows if row[0] == "copy"}
    share_refs = {row[3] for row in rows if row[0] == "share"}
    # Pass-by-reference moves measurably less data, on every model.
    assert max(share_refs) < min(copy_refs)