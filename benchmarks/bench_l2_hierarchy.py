"""S3.2.1c — The two-level hierarchy: VIVT L1 + off-chip TLB at the L2.

Paper prediction (Section 3.2.1): with a virtually indexed, virtually
tagged first-level cache, "address translation is required only on the
small percentage of accesses that either miss in the cache or require a
writeback.  The TLB can therefore be moved out of the critical path of
the processor, and even off the processor chip; an obvious organization
would place the TLB along with the cache controller for the second-level
cache."  The bench measures how rarely translation runs and how much of
the L1 miss traffic the L2 absorbs.
"""

from __future__ import annotations

from repro.analysis import benchout
from repro.analysis.report import format_table
from repro.core.rights import Rights
from repro.os.kernel import Kernel
from repro.sim.machine import Machine
from repro.workloads.tracegen import TraceGenerator

L1 = 16 * 1024
REFS = 6_000


def run_hierarchy(l2_bytes: int | None):
    kernel = Kernel(
        "plb",
        system_options={"cache_bytes": L1, "cache_ways": 2, "l2_cache_bytes": l2_bytes},
    )
    machine = Machine(kernel)
    domain = kernel.create_domain("app")
    segment = kernel.create_segment("data", 40)
    kernel.attach(domain, segment, Rights.RW)
    gen = TraceGenerator(31, kernel.params)
    # Line-local references: each page visit walks a handful of hot
    # lines, so the L1 sees realistic reuse and translation runs only
    # on the residual misses.
    rng = gen.rng
    line = kernel.params.cache_line_bytes
    pages = gen.page_sequence(segment.n_pages, REFS // 16, zipf_s=1.3)
    produced = 0
    for page_index in pages:
        if produced >= REFS:
            break
        vpn = segment.vpn_at(page_index)
        for touch in range(16):
            offset = (((page_index * 16) + (touch % 16)) % 128) * line
            write = rng.random() < 0.3
            vaddr = kernel.params.vaddr(vpn, offset % kernel.params.page_size)
            if write:
                machine.write(domain, vaddr)
            else:
                machine.read(domain, vaddr)
            produced += 1
    return kernel.stats


def test_report_l2_hierarchy():
    rows = []
    for l2_kb in (None, 32, 64, 256):
        stats = run_hierarchy(l2_kb * 1024 if l2_kb else None)
        refs = stats["refs"]
        assert refs == REFS
        l1_misses = stats["dcache.miss"]
        l2_lookups = stats["l2cache.hit"] + stats["l2cache.miss"]
        l2_rate = stats["l2cache.hit"] / l2_lookups if l2_lookups else 0.0
        rows.append(
            [
                "no L2" if l2_kb is None else f"{l2_kb} KB L2",
                refs,
                f"{stats['tlb.off_chip_access'] / refs * 100:.2f}%",
                f"{l1_misses / refs * 100:.2f}%",
                f"{l2_rate * 100:.1f}%",
            ]
        )
    benchout.record(
        "Section 3.2.1: Two-level hierarchy (VIVT L1, TLB at the L2 controller)",
        format_table(
            [
                "configuration",
                "refs",
                "translations / ref",
                "L1 miss rate",
                "L2 hit rate",
            ],
            rows,
            title="Translation runs only on L1 misses/writebacks "
            "(paper: 'the small percentage of accesses'); "
            "the L2 absorbs most of what misses",
        ),
    )
    # Directions: translation traffic is a small fraction of references,
    # and a larger L2 absorbs more of the L1 miss stream.
    translation_rate = float(rows[0][2].rstrip("%"))
    assert translation_rate < 40.0
    absorb_small = float(rows[1][4].rstrip("%"))
    absorb_large = float(rows[3][4].rstrip("%"))
    assert absorb_large >= absorb_small
