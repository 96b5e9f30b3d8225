"""S2.1b — Shared code libraries across many domains.

Section 2.1 / §4.1.1: in a SASOS a code library exists once, at one
global address, for every program that links it.  The bench scales the
number of executing domains and reports translation-entry residency
(flat for the SASOS organizations, linear for the conventional one) and
per-model protection traffic for the same instruction-fetch stream.
"""

from __future__ import annotations

import dataclasses

from repro.analysis import benchout
from repro.analysis.report import format_table
from repro.os.kernel import MODELS, Kernel
from repro.workloads.shlib import SharedLibraryConfig, SharedLibraryWorkload

CONFIG = SharedLibraryConfig(
    libraries=4, library_pages=8, domains=4, data_pages=2,
    rounds=4, fetches_per_round=24, seed=41,
)


def test_report_shared_library():
    rows = []
    for n_domains in (2, 4, 8):
        config = dataclasses.replace(CONFIG, domains=n_domains)
        for model in MODELS:
            workload = SharedLibraryWorkload(
                Kernel(model, system_options={"tlb_entries": 4096}), config
            )
            report = workload.run()
            assert report.fetches > 0
            rows.append(
                [
                    n_domains,
                    model,
                    report.fetches,
                    workload.library_translation_entries(),
                    report.stats["plb.fill"],
                    report.stats["group_reload"],
                ]
            )
    benchout.record(
        "Section 2.1: Shared libraries, sweep of executing domains "
        f"({CONFIG.libraries} libs x {CONFIG.library_pages} pages)",
        format_table(
            ["domains", "model", "fetches", "library translation entries",
             "PLB fills", "group reloads"],
            rows,
            title="One copy of the code at one address: translations stay "
            "flat on SASOS organizations, replicate conventionally",
        ),
    )
    lib_pages = CONFIG.libraries * CONFIG.library_pages
    for row in rows:
        n_domains, model, _, entries = row[0], row[1], row[2], row[3]
        if model in ("plb", "pagegroup"):
            assert entries <= lib_pages
        elif n_domains >= 4:
            # Replication: well beyond one entry per page (not exactly
            # domains x pages, since each domain touches its own zipf
            # subset of the library pages).
            assert entries > lib_pages