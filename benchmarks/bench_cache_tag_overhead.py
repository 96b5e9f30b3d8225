"""S3.2.1b — VIVT cache tag overhead: the ~10% claim.

Paper prediction (Section 3.2.1): "in a system with 64-bit virtual
addresses, 36-bit physical addresses and 32 byte cache lines, a
virtually tagged cache would be about 10% larger" than a virtually
indexed, physically tagged cache.  The single address space makes that
the *only* premium: no ASID bits are needed, because homonyms cannot
occur.  The paper's 16 KB point is asserted in
``tests/integration/test_paper_claims.py``; this bench prints the sweep.
"""

from __future__ import annotations

from repro.analysis import benchout
from repro.analysis.report import format_table
from repro.core.costs import vivt_overhead_ratio
from repro.core.params import MachineParams


def test_report_cache_tag_overhead():
    rows = []
    for cache_kb in (8, 16, 64, 256):
        plain = vivt_overhead_ratio(cache_bytes=cache_kb * 1024, ways=1)
        asid = vivt_overhead_ratio(
            cache_bytes=cache_kb * 1024, ways=1, asid_tagged=True
        )
        rows.append(
            [
                f"{cache_kb} KB",
                f"{(plain - 1) * 100:.1f}%",
                f"{(asid - 1) * 100:.1f}%",
            ]
        )
    benchout.record(
        "Section 3.2.1: VIVT cache size premium over VIPT "
        "(64-bit VA, 36-bit PA, 32 B lines)",
        format_table(
            ["cache size", "VIVT premium (SASOS: no ASID)",
             "VIVT premium (multi-AS: +16-bit ASID tags)"],
            rows,
            title="Virtually tagged cache storage overhead "
            "(paper: 'about 10%' at 16 KB; ASID tags are the extra "
            "multi-AS cost a single address space avoids)",
        ),
    )


def test_report_narrower_va():
    rows = []
    for va in (40, 48, 52, 64):
        params = MachineParams(va_bits=va, pa_bits=36)
        premium = vivt_overhead_ratio(params, cache_bytes=16 * 1024)
        rows.append([f"{va}-bit", f"{(premium - 1) * 100:.1f}%"])
    benchout.record(
        "Section 3.2.1: Tag premium vs virtual-address width (16 KB cache)",
        format_table(["virtual address", "VIVT premium"], rows),
    )
