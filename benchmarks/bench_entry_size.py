"""S3.2.1a — Structure entry sizes: the ~25% PLB advantage.

Paper prediction (Section 4): "PLB entries are smaller than page-group
TLB entries (about 25%, assuming the field sizes in Figure 1 and a
physical address of 36 bits), since they don't contain
virtual-to-physical translations, allowing more entries in the same
amount of space."  The paper's geometry, and §4.2's critical path, are
asserted in ``tests/integration/test_paper_claims.py``; this bench
prints the tables.
"""

from __future__ import annotations

from repro.analysis import benchout
from repro.analysis.report import format_table
from repro.core.costs import (
    conventional_tlb_entry_bits,
    critical_path,
    entries_for_budget,
    pagegroup_tlb_entry_bits,
    plb_entry_bits,
    plb_size_advantage,
    translation_tlb_entry_bits,
)
from repro.core.params import DEFAULT_PARAMS, MachineParams


def test_report_entry_sizes():
    rows = []
    for params, label in [
        (DEFAULT_PARAMS, "64-bit VA / 36-bit PA (paper)"),
        (MachineParams(pa_bits=40), "64-bit VA / 40-bit PA"),
        (MachineParams(va_bits=52, pa_bits=36), "52-bit VA / 36-bit PA"),
    ]:
        rows.append(
            [
                label,
                plb_entry_bits(params),
                pagegroup_tlb_entry_bits(params),
                translation_tlb_entry_bits(params),
                conventional_tlb_entry_bits(params),
                f"{plb_size_advantage(params) * 100:.1f}%",
            ]
        )
    budget = pagegroup_tlb_entry_bits() * 128
    equal_silicon = format_table(
        ["structure", "entry bits", "entries in a 128-entry-page-group-TLB budget"],
        [
            ["PLB", plb_entry_bits(), entries_for_budget(plb_entry_bits(), budget)],
            ["page-group TLB", pagegroup_tlb_entry_bits(), 128],
            [
                "conventional ASID-TLB",
                conventional_tlb_entry_bits(),
                entries_for_budget(conventional_tlb_entry_bits(), budget),
            ],
        ],
        title="Equal-silicon comparison (the paper's fair-comparison remark)",
    )
    benchout.record(
        "Section 3.2.1/4: Protection-structure entry sizes",
        format_table(
            [
                "geometry",
                "PLB entry",
                "page-group TLB entry",
                "translation TLB entry",
                "ASID-TLB entry",
                "PLB smaller by",
            ],
            rows,
            title="Entry bits per structure (valid/status bits included)",
        )
        + "\n\n"
        + equal_silicon,
    )


def test_report_critical_path():
    """Section 4.2: serialized vs parallel protection checking."""
    paths = [critical_path(model) for model in ("plb", "pagegroup", "conventional")]
    benchout.record(
        "Section 4.2: Protection check on the reference path",
        format_table(
            ["model", "dependent stages", "tag-compare bits", "organization"],
            [
                [path.model, path.sequential_stages, path.tag_compare_bits,
                 path.description]
                for path in paths
            ],
            title="Paper: the page-group check is two *sequential* lookups "
            "(TLB then group cache); the PLB is one lookup with a wider tag",
        ),
    )
