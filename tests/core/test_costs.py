"""Tests for the bit-cost and cycle-cost models — including the paper's
quantitative hardware claims (Figure 1 widths, the ~25% entry-size
advantage, the ~10% VIVT tag overhead)."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core.costs import (
    CycleCosts,
    DEFAULT_COSTS,
    cache_line_bits,
    conventional_tlb_entry_bits,
    cycles_breakdown,
    cycles_for,
    entries_for_budget,
    geometric_mean,
    pagegroup_tlb_entry_bits,
    plb_entry_bits,
    plb_size_advantage,
    structure_total_bits,
    translation_tlb_entry_bits,
    vivt_overhead_ratio,
)
from repro.core.params import DEFAULT_PARAMS, MachineParams
from repro.sim.stats import Stats


class TestEntrySizes:
    def test_figure1_plb_entry_fields(self):
        """52 + 16 + 3 bits plus one valid bit (Figure 1)."""
        assert plb_entry_bits() == 52 + 16 + 3 + 1

    def test_translation_only_entry(self):
        # 52 VPN tag + 24 PFN + 2 status + valid
        assert translation_tlb_entry_bits() == 52 + 24 + 2 + 1

    def test_pagegroup_entry_adds_aid_and_rights(self):
        assert pagegroup_tlb_entry_bits() == 52 + 24 + 3 + 16 + 2 + 1

    def test_conventional_entry_adds_asid(self):
        assert conventional_tlb_entry_bits() == 52 + 16 + 24 + 3 + 2 + 1

    def test_paper_claim_plb_25pct_smaller(self):
        """Section 4: PLB entries about 25% smaller than page-group TLB
        entries (they carry no translation)."""
        advantage = plb_size_advantage()
        assert 0.20 <= advantage <= 0.30

    def test_set_indexing_shrinks_tags(self):
        full = plb_entry_bits(n_sets=1)
        indexed = plb_entry_bits(n_sets=16)
        assert full - indexed == 4

    def test_rejects_non_power_of_two_sets(self):
        with pytest.raises(ValueError):
            plb_entry_bits(n_sets=3)

    def test_budget_entries(self):
        entry = plb_entry_bits()
        assert entries_for_budget(entry, entry * 10) == 10
        assert entries_for_budget(entry, entry * 10 + 5) == 10

    def test_structure_total(self):
        assert structure_total_bits(72, 128) == 72 * 128

    def test_equal_silicon_buys_more_plb_entries(self):
        """The fair-comparison remark: smaller entries -> more of them."""
        budget = pagegroup_tlb_entry_bits() * 128
        assert entries_for_budget(plb_entry_bits(), budget) > 128


class TestCacheTagOverhead:
    def test_paper_claim_vivt_10pct_larger(self):
        """Section 3.2.1: 64-bit VAs, 36-bit PAs, 32-byte lines ->
        a virtually tagged cache is about 10% larger."""
        ratio = vivt_overhead_ratio(cache_bytes=16 * 1024, ways=1)
        assert 1.07 <= ratio <= 1.13

    def test_overhead_shrinks_with_smaller_va(self):
        small_va = MachineParams(va_bits=40)
        assert vivt_overhead_ratio(small_va) < vivt_overhead_ratio()

    def test_asid_tagging_costs_more(self):
        """The conventional homonym fix widens tags further (§2.2)."""
        plain = vivt_overhead_ratio()
        tagged = vivt_overhead_ratio(asid_tagged=True)
        assert tagged > plain

    def test_line_bits_components(self):
        # Direct-mapped 16K cache: 512 lines/sets; VIVT tag = 64-5-9=50.
        bits = cache_line_bits(virtually_tagged=True, n_sets=512)
        assert bits == 32 * 8 + 50 + 2

    def test_physical_tag_smaller(self):
        vivt = cache_line_bits(virtually_tagged=True, n_sets=512)
        vipt = cache_line_bits(virtually_tagged=False, n_sets=512)
        assert vivt - vipt == DEFAULT_PARAMS.va_bits - DEFAULT_PARAMS.pa_bits


class TestCycleModel:
    def test_weight_lookup_by_suffix(self):
        costs = CycleCosts()
        assert costs.weight_for("dcache.hit") == costs.cache_hit
        assert costs.weight_for("sys.dcache.hit") == costs.cache_hit
        assert costs.weight_for("unknown.counter") == 0

    def test_cycles_for_weighted_sum(self):
        stats = Stats({"dcache.hit": 10, "kernel.trap": 2, "unpriced": 99})
        expected = 10 * DEFAULT_COSTS.cache_hit + 2 * DEFAULT_COSTS.kernel_trap
        assert cycles_for(stats) == expected

    def test_breakdown_only_nonzero(self):
        stats = Stats({"dcache.hit": 1, "unpriced": 5})
        breakdown = cycles_breakdown(stats)
        assert breakdown == {"dcache.hit": DEFAULT_COSTS.cache_hit}

    def test_custom_costs(self):
        costs = CycleCosts(kernel_trap=1000)
        stats = Stats({"kernel.trap": 1})
        assert cycles_for(stats, costs) == 1000

    def test_cached_weight_equals_suffix_scan_on_real_runs(self):
        """Every counter a Table 1 run and a serve run produce is priced
        the same by the cache as by the suffix scan, on the first call
        and on the cached one."""
        from repro.analysis.table1 import run_attach_detach, run_rpc
        from repro.serve.driver import ServeConfig, run_serve

        names: set[str] = set()
        for run in (run_attach_detach, run_rpc):
            for stats in run().stats_by_model.values():
                names.update(stats.as_dict())
        served = run_serve(
            ServeConfig(duration_ms=60, models=("plb", "conventional"),
                        cpus=2, plan="mixed")
        )
        for stats in served.stats.values():
            names.update(stats.as_dict())
        assert any(DEFAULT_COSTS.scan_weight(name) for name in names)
        for costs in (CycleCosts(), CycleCosts(kernel_trap=1000)):
            for name in sorted(names):
                expected = costs.scan_weight(name)
                assert costs.weight_for(name) == expected, name
                assert costs.weight_for(name) == expected, name

    def test_weight_cache_is_not_part_of_equality(self):
        warmed = CycleCosts()
        warmed.weight_for("dcache.hit")
        assert warmed == CycleCosts()
        assert hash(warmed) == hash(CycleCosts())

    @given(st.dictionaries(
        st.sampled_from(["dcache.hit", "dcache.miss", "plb.fill", "kernel.trap"]),
        st.integers(0, 500),
    ))
    def test_cycles_monotone_in_counts(self, counts):
        stats = Stats(counts)
        bigger = Stats(counts)
        bigger.inc("kernel.trap", 1)
        assert cycles_for(bigger) >= cycles_for(stats)


class TestGeometricMean:
    def test_simple(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)

    def test_single(self):
        assert geometric_mean([3.5]) == pytest.approx(3.5)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            geometric_mean([])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])
