"""S3.1 — Conventional ASID-TLB replication and page-table waste.

Paper prediction (Section 3.1): "Sharing of a page by multiple domains
causes replication of TLB protection entries, even though each
replicated entry has the same translation information.  The duplication
reduces the effectiveness of the TLB as sharing increases."  Linear
page tables additionally duplicate mappings and cannot represent sparse
address-space views compactly.

The bench sweeps the number of domains sharing one segment and compares
TLB content and page-table storage across the three systems.
"""

from __future__ import annotations

from repro.analysis import benchout
from repro.analysis.report import format_table
from repro.core.conventional import duplication_report
from repro.core.rights import Rights
from repro.os.inverted import InvertedPageTable
from repro.os.kernel import Kernel
from repro.sim.machine import Machine

SWEEP = [1, 2, 4, 8]
PAGES = 16
TLB_ENTRIES = 64


def run_sharing(model: str, n_domains: int):
    kernel = Kernel(model, system_options={"tlb_entries": TLB_ENTRIES})
    machine = Machine(kernel)
    segment = kernel.create_segment("shared", PAGES)
    domains = [kernel.create_domain(f"d{i}") for i in range(n_domains)]
    for domain in domains:
        kernel.attach(domain, segment, Rights.RW)
    for repeat in range(2):
        for domain in domains:
            for vpn in segment.vpns():
                machine.read(domain, kernel.params.vaddr(vpn))
    return kernel, domains


def test_report_replication():
    rows = []
    for n_domains in SWEEP:
        plb_kernel, _ = run_sharing("plb", n_domains)
        pg_kernel, _ = run_sharing("pagegroup", n_domains)
        conv_kernel, conv_domains = run_sharing("conventional", n_domains)
        for kernel in (plb_kernel, pg_kernel, conv_kernel):
            assert kernel.stats["refs"] == 2 * n_domains * PAGES
        conv_tlb = conv_kernel.system.tlb
        duplication = duplication_report(
            {d.pd_id: conv_kernel.linear_tables[d.pd_id] for d in conv_domains}
        )
        rows.append(
            [
                n_domains,
                len(plb_kernel.system.tlb),  # translation-only TLB
                len(plb_kernel.system.plb),  # PLB replicates (small entries)
                len(pg_kernel.system.tlb),  # AID-tagged TLB
                len(conv_tlb),  # ASID-tagged TLB replicates
                conv_kernel.stats["asidtlb.fill"],
                duplication["duplicated_entries"],
            ]
        )
    benchout.record(
        "Section 3.1: TLB replication under sharing "
        f"({PAGES} shared pages, sweep: sharing domains)",
        format_table(
            [
                "domains",
                "PLB-sys TLB entries",
                "PLB entries",
                "page-group TLB entries",
                "ASID-TLB entries",
                "ASID-TLB fills",
                "duplicated PTEs",
            ],
            rows,
            title="Translation structures: one entry per page (PLB system, "
            "page-group) vs one per (domain,page) (conventional)",
        ),
    )
    # Directions: translation entries stay flat for PLB/page-group
    # systems; ASID-TLB content and PTE duplication grow linearly.
    assert rows[0][1] == rows[-1][1] == PAGES
    assert rows[0][3] == rows[-1][3] == PAGES
    assert rows[-1][4] == min(SWEEP[-1] * PAGES, TLB_ENTRIES)
    assert rows[-1][6] == (SWEEP[-1] - 1) * PAGES


def test_report_inverted_page_table():
    """§3.1's pointer to the 801: a single shared translation table,
    sized by physical memory rather than the 64-bit virtual space."""
    from repro.core.rights import Rights as R
    from repro.sim.machine import Machine as M

    kernel = Kernel("plb", n_frames=256, inverted_table=True)
    # The kernel's one translation table is the inverted table.
    assert isinstance(kernel.translations, InvertedPageTable)
    machine = M(kernel)
    domain = kernel.create_domain("d")
    # Segments scattered across the address space.
    segments = []
    for index in range(4):
        kernel.create_segment(f"gap{index}", 1 << (10 + index), populate=False)
        segment = kernel.create_segment(f"s{index}", 8)
        kernel.attach(domain, segment, R.RW)
        segments.append(segment)
    for segment in segments:
        for vpn in segment.vpns():
            machine.read(domain, kernel.params.vaddr(vpn))
    ipt = kernel.translations
    span_pages = kernel.allocator.allocated_through - 0x100
    linear_bits = span_pages * 30  # a linear table over the same span
    benchout.record(
        "Section 3.1: Inverted page table vs linear table (sparse 64-bit view)",
        f"virtual span touched: {span_pages:,} pages\n"
        f"linear table over the span: {linear_bits / 8 / 1024:,.0f} KB\n"
        f"inverted table (256 frames): {ipt.table_bits() / 8 / 1024:,.1f} KB\n"
        f"mean hash-chain probe length: {ipt.mean_probe_length:.2f}",
    )
    assert ipt.table_bits() < linear_bits / 10
    assert ipt.mean_probe_length < 4.0


def test_sparse_address_space_linear_table_waste():
    """§3.1's sparsity charge: a linear table must span the extent."""
    kernel = Kernel("conventional")
    domain = kernel.create_domain("d")
    # Small segments scattered by the allocator across the space.
    for index in range(6):
        kernel.create_segment(f"pad{index}", 1 << (index + 4), populate=False)
        segment = kernel.create_segment(f"s{index}", 2)
        kernel.attach(domain, segment, Rights.RW)
    table = kernel.linear_tables[domain.pd_id]
    waste = table.span_entries / table.mapped_entries
    benchout.record(
        "Section 3.1: Linear page table sparsity waste",
        f"mapped pages: {table.mapped_entries}\n"
        f"linear-table span: {table.span_entries} entries\n"
        f"waste factor: {waste:,.0f}x "
        "(a shared global table needs only the mapped pages)",
    )
    assert waste > 10
