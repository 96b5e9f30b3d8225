"""ABL-PLBASSOC — Ablation: PLB size and associativity.

Design question from DESIGN.md §5(1): the PLB needs replicated entries
under sharing ("more entries are required when pages are shared",
§3.2.1) but its entries are ~25% smaller.  This sweep measures PLB miss
rate against entry count and associativity on the GC workload, plus an
equal-silicon point where the PLB's smaller entries buy it extra
capacity over a page-group TLB of the same area.
"""

from __future__ import annotations

from repro.analysis import benchout
from repro.analysis.report import format_table
from repro.core.costs import entries_for_budget, pagegroup_tlb_entry_bits, plb_entry_bits
from repro.os.kernel import Kernel
from repro.workloads.gc import ConcurrentGC, GCConfig

CONFIG = GCConfig(heap_pages=48, collections=2, mutator_refs_per_cycle=800, seed=42)
ENTRY_SWEEP = [16, 32, 64, 128]
WAY_SWEEP = [1, 4, None]  # None = fully associative


def run_gc_with_plb(entries: int, ways: int | None):
    kernel = Kernel("plb", system_options={"plb_entries": entries, "plb_ways": ways})
    return ConcurrentGC(kernel, CONFIG).run()


def test_report_plb_ablation():
    rows = []
    for entries in ENTRY_SWEEP:
        for ways in WAY_SWEEP:
            report = run_gc_with_plb(entries, ways)
            assert report.collections == CONFIG.collections
            stats = report.stats
            lookups = stats["plb.hit"] + stats["plb.miss"]
            rows.append(
                [
                    entries,
                    "full" if ways is None else ways,
                    f"{stats['plb.miss'] / lookups * 100:.2f}%",
                    stats["plb.fill"],
                    stats["plb.eviction"],
                ]
            )
    # Equal-silicon comparison point.
    budget = pagegroup_tlb_entry_bits() * 64
    bonus_entries = entries_for_budget(plb_entry_bits(), budget)
    benchout.record(
        "Ablation: PLB entries x associativity (GC workload)",
        format_table(
            ["entries", "ways", "PLB miss rate", "fills", "evictions"],
            rows,
            title="PLB geometry sweep",
        )
        + f"\n\nEqual silicon: a 64-entry page-group TLB's area holds a "
        f"{bonus_entries}-entry PLB ({bonus_entries - 64} extra entries, "
        "offsetting sharing replication).",
    )
    # Direction: bigger PLB, fewer misses (compare full-assoc rows).
    full_rows = [row for row in rows if row[1] == "full"]
    miss_rates = [float(row[2].rstrip("%")) for row in full_rows]
    assert miss_rates[0] > miss_rates[-1]
    assert bonus_entries > 64
