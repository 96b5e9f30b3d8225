"""S4.3b — Multiple translation page sizes: TLB reach.

Paper prediction (Section 4.3): "Larger physical pages are attractive,
because they improve TLB performance; with a larger page size each TLB
entry covers more data."  With the PLB separating protection from
translation, the translation page size can grow without coarsening
protection.  The bench walks several large contiguous segments through
a small TLB with and without superpage entries.
"""

from __future__ import annotations

from repro.analysis import benchout
from repro.analysis.report import format_table
from repro.core.rights import Rights
from repro.os.kernel import Kernel
from repro.sim.machine import Machine

SEGMENTS = 4
PAGES = 16
TLB_ENTRIES = 8
ROUNDS = 3


def run(tlb_levels: tuple[int, ...], contiguous: bool):
    kernel = Kernel(
        "plb",
        n_frames=8192,
        system_options={"tlb_levels": tlb_levels, "tlb_entries": TLB_ENTRIES},
    )
    machine = Machine(kernel)
    domain = kernel.create_domain("app")
    segments = [
        kernel.create_segment(f"s{i}", PAGES, contiguous=contiguous)
        for i in range(SEGMENTS)
    ]
    for segment in segments:
        kernel.attach(domain, segment, Rights.RW)
    for _ in range(ROUNDS):
        for segment in segments:
            for vpn in segment.vpns():
                machine.read(domain, kernel.params.vaddr(vpn))
    return kernel


def test_report_tlb_reach():
    base, superpage = run((0,), False), run((4, 0), True)
    rows = []
    for label, kernel in [("4 KB pages only", base), ("64 KB superpages", superpage)]:
        stats = kernel.stats
        assert stats["refs"] == ROUNDS * SEGMENTS * PAGES
        lookups = stats["tlb.hit"] + stats["tlb.miss"]
        rows.append(
            [
                label,
                stats["tlb.fill"],
                f"{stats['tlb.miss'] / lookups * 100:.1f}%" if lookups else "-",
                kernel.system.tlb.reach_pages(),  # type: ignore[attr-defined]
                stats["memory.allocate_contiguous"],
            ]
        )
    benchout.record(
        "Section 4.3: Translation superpages and TLB reach "
        f"({SEGMENTS} x {PAGES}-page segments, {TLB_ENTRIES}-entry TLB)",
        format_table(
            ["translation sizes", "TLB fills", "TLB miss rate",
             "resident reach (pages)", "contiguous allocations"],
            rows,
            title="Each superpage entry covers 16 pages; protection "
            "granularity is unchanged (the PLB is separate)",
        ),
    )
    # Direction: superpage translations slash fills and extend reach.
    assert superpage.stats["tlb.fill"] <= base.stats["tlb.fill"] / 4
    assert superpage.system.tlb.reach_pages() > base.system.tlb.reach_pages()  # type: ignore[attr-defined]