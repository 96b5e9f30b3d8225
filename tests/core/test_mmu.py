"""Unit tests for the three memory systems, using stub OS sources.

These tests exercise the MMU layer in isolation (no kernel): stub
protection/translation/group sources supply mappings, and the tests
verify the reference-path behaviour the paper prescribes for each model.
"""

from __future__ import annotations

import pytest

from repro.core.mmu import (
    ConventionalSystem,
    FaultReason,
    PageFault,
    PageGroupSystem,
    PLBSystem,
    ProtectionFault,
    ProtectionInfo,
    TranslationInfo,
)
from repro.core.pagegroup import PageGroupCache
from repro.core.params import DEFAULT_PARAMS
from repro.core.rights import AccessType, Rights
from repro.hardware.registers import PIDEntry, PIDRegisterFile

PAGE = DEFAULT_PARAMS.page_size


class StubProtection:
    """ProtectionSource backed by a dict."""

    def __init__(self, table: dict[tuple[int, int], ProtectionInfo]):
        self.table = table
        self.queries = 0

    def rights_for(self, pd_id, vpn):
        self.queries += 1
        return self.table.get((pd_id, vpn))


class StubTranslation:
    """TranslationSource backed by a dict."""

    def __init__(self, table: dict[int, int]):
        self.table = table
        self.queries = 0

    def translation_for(self, vpn):
        self.queries += 1
        pfn = self.table.get(vpn)
        return None if pfn is None else TranslationInfo(pfn=pfn)


class StubGroups:
    """GroupSource backed by dicts."""

    def __init__(self, pages: dict[int, tuple[int, Rights, int]],
                 holdings: dict[int, dict[int, PIDEntry]]):
        self.pages = pages
        self.holdings = holdings

    def page_info(self, vpn):
        return self.pages.get(vpn)

    def domain_group_entry(self, pd_id, group):
        return self.holdings.get(pd_id, {}).get(group)

    def domain_groups(self, pd_id):
        return list(self.holdings.get(pd_id, {}).values())


class StubDomainPages:
    """DomainPageSource backed by dicts."""

    def __init__(self, table: dict[tuple[int, int], tuple[int, Rights]],
                 resident: set[int]):
        self.table = table
        self.resident = resident

    def domain_page(self, pd_id, vpn):
        return self.table.get((pd_id, vpn))

    def page_resident(self, vpn):
        return vpn in self.resident


# --------------------------------------------------------------------- #
# PLB system


def make_plb_system(**kw):
    protection = StubProtection({(1, 0): ProtectionInfo(Rights.RW),
                                 (1, 1): ProtectionInfo(Rights.READ),
                                 (2, 0): ProtectionInfo(Rights.READ)})
    translation = StubTranslation({0: 100, 1: 101})
    system = PLBSystem(protection, translation, **kw)
    return system, protection, translation


class TestPLBSystem:
    def test_access_fills_plb_lazily(self):
        system, protection, _ = make_plb_system()
        system.switch_domain(1)
        system.read(0)
        assert system.stats["plb.fill"] == 1
        assert protection.queries == 1
        system.read(8)  # same page, PLB hit
        assert protection.queries == 1

    def test_unattached_page_faults(self):
        system, _, _ = make_plb_system()
        system.switch_domain(1)
        with pytest.raises(ProtectionFault) as err:
            system.read(5 * PAGE)
        assert err.value.reason is FaultReason.UNATTACHED

    def test_denied_write_faults(self):
        system, _, _ = make_plb_system()
        system.switch_domain(1)
        with pytest.raises(ProtectionFault) as err:
            system.write(1 * PAGE)
        assert err.value.reason is FaultReason.DENIED
        assert err.value.rights == Rights.READ

    def test_protection_checked_before_translation(self):
        """The PLB is probed in parallel with the cache — before any
        translation; an illegal access never touches the TLB."""
        system, _, translation = make_plb_system()
        system.switch_domain(1)
        with pytest.raises(ProtectionFault):
            system.write(1 * PAGE)
        assert translation.queries == 0

    def test_translation_only_on_cache_miss(self):
        system, _, translation = make_plb_system()
        system.switch_domain(1)
        system.read(0)
        queries_after_miss = translation.queries
        system.read(0)  # cache hit: no TLB involvement at all
        assert translation.queries == queries_after_miss
        assert system.stats["tlb.off_chip_access"] == 1

    def test_completed_reference_returns_none_and_leaves_paddr(self):
        """A miss translates and leaves its physical address; a VIVT hit
        never translates, so it leaves none."""
        system, _, _ = make_plb_system()
        system.switch_domain(1)
        assert system.access_fast(PAGE + 8, AccessType.READ) is None
        assert system.paddr == 101 * PAGE + 8
        assert system.access_fast(PAGE + 8, AccessType.READ) is None
        assert system.paddr is None
        fault = system.access_fast(5 * PAGE, AccessType.READ)
        assert isinstance(fault, ProtectionFault)

    def test_hazard_checks_translate_before_the_probe(self):
        """With hazard checks the VIVT cache verifies every hit against
        its physical address, so hits translate too."""
        system, _, _ = make_plb_system(detect_hazards=True)
        system.switch_domain(1)
        system.read(8)
        system.read(8)
        assert system.stats["dcache.hit"] == 1
        assert system.stats["tlb.off_chip_access"] == 2
        assert system.paddr == 100 * PAGE + 8

    def test_unmapped_page_raises_pagefault(self):
        protection = StubProtection({(1, 9): ProtectionInfo(Rights.RW)})
        system = PLBSystem(protection, StubTranslation({}))
        system.switch_domain(1)
        with pytest.raises(PageFault):
            system.read(9 * PAGE)

    def test_domain_switch_is_one_register_write(self):
        """Section 4.1.4: nothing is purged on a PLB domain switch."""
        system, _, _ = make_plb_system()
        system.switch_domain(1)
        system.read(0)
        plb_len = len(system.plb)
        tlb_len = len(system.tlb)
        system.switch_domain(2)
        assert system.stats["pdid.write"] == 2
        assert len(system.plb) == plb_len
        assert len(system.tlb) == tlb_len

    def test_two_domains_coexist_in_plb(self):
        system, _, _ = make_plb_system()
        system.switch_domain(1)
        system.read(0)
        system.switch_domain(2)
        system.read(0)
        assert system.plb.entries_for_page(0) == 2
        # Translation is shared: one TLB entry despite two domains.
        assert len(system.tlb) == 1

    def test_superpage_protection_level(self):
        protection = StubProtection({(1, vpn): ProtectionInfo(Rights.RW, level=2)
                                     for vpn in range(4)})
        translation = StubTranslation({vpn: vpn + 50 for vpn in range(4)})
        system = PLBSystem(protection, translation, plb_levels=(2, 0))
        system.switch_domain(1)
        system.read(0)
        assert protection.queries == 1
        # The rest of the superpage hits without new protection queries.
        for vpn in range(1, 4):
            system.read(vpn * PAGE)
        assert protection.queries == 1
        assert len(system.plb) == 1


# --------------------------------------------------------------------- #
# Page-group system


def make_pg_system(**kw):
    pages = {0: (100, Rights.RW, 7), 1: (101, Rights.READ, 7), 2: (102, Rights.RW, 8)}
    holdings = {1: {7: PIDEntry(group=7)}, 2: {7: PIDEntry(group=7, write_disable=True)}}
    source = StubGroups(pages, holdings)
    system = PageGroupSystem(source, **kw)
    return system, source


class TestPageGroupSystem:
    def test_group_miss_reloads_when_held(self):
        system, _ = make_pg_system()
        system.switch_domain(1)
        system.read(0)
        assert system.stats["pgcache.fill"] == 1  # group faulted into the cache
        assert system.stats["group_reload"] == 1
        system.read(PAGE)  # same group: no further reload
        assert system.stats["group_reload"] == 1

    def test_unheld_group_faults(self):
        system, _ = make_pg_system()
        system.switch_domain(1)
        with pytest.raises(ProtectionFault) as err:
            system.read(2 * PAGE)
        assert err.value.reason is FaultReason.UNATTACHED

    def test_rights_field_enforced(self):
        system, _ = make_pg_system()
        system.switch_domain(1)
        with pytest.raises(ProtectionFault) as err:
            system.write(1 * PAGE)
        assert err.value.reason is FaultReason.DENIED

    def test_write_disable_bit_masks_writes(self):
        """Domain 2 holds group 7 write-disabled (Figure 2's D bit)."""
        system, _ = make_pg_system()
        system.switch_domain(2)
        system.read(0)  # reads fine
        with pytest.raises(ProtectionFault):
            system.write(0)

    def test_domain_switch_purges_group_cache(self):
        system, _ = make_pg_system()
        system.switch_domain(1)
        system.read(0)
        assert len(system.groups) == 1  # type: ignore[arg-type]
        system.switch_domain(2)
        assert len(system.groups) == 0  # type: ignore[arg-type]

    def test_eager_reload_on_switch(self):
        system, _ = make_pg_system(eager_reload=True)
        system.switch_domain(1)
        assert system.stats["group_eager_load"] == 1
        system.read(0)
        assert system.stats["group_reload"] == 0

    def test_tlb_shared_across_domains(self):
        """One AID-tagged entry serves every domain (§3.2.2)."""
        system, _ = make_pg_system()
        system.switch_domain(1)
        system.read(0)
        system.switch_domain(2)
        system.read(0)
        assert len(system.tlb) == 1

    def test_register_file_holder(self):
        system, _ = make_pg_system(group_holder="registers", group_capacity=4)
        assert isinstance(system.groups, PIDRegisterFile)
        system.switch_domain(1)
        system.read(0)
        assert system.stats["group_reload"] == 1

    def test_unknown_holder_rejected(self):
        with pytest.raises(ValueError):
            make_pg_system(group_holder="bogus")

    def test_unmapped_page_pagefaults(self):
        system, _ = make_pg_system()
        system.switch_domain(1)
        with pytest.raises(PageFault):
            system.read(9 * PAGE)


# --------------------------------------------------------------------- #
# Conventional system


def make_conv_system(**kw):
    table = {(1, 0): (100, Rights.RW), (2, 0): (100, Rights.READ),
             (1, 1): (101, Rights.READ)}
    source = StubDomainPages(table, resident={0, 1, 3})
    system = ConventionalSystem(source, **kw)
    return system, source


class TestConventionalSystem:
    def test_per_domain_entries_replicate(self):
        system, _ = make_conv_system()
        system.switch_domain(1)
        system.read(0)
        system.switch_domain(2)
        system.read(0)
        assert system.tlb.replicas(0) == 2

    def test_rights_enforced_per_domain(self):
        system, _ = make_conv_system()
        system.switch_domain(2)
        with pytest.raises(ProtectionFault) as err:
            system.write(0)
        assert err.value.reason is FaultReason.DENIED

    def test_resident_but_unattached_is_protection_fault(self):
        system, _ = make_conv_system()
        system.switch_domain(2)
        with pytest.raises(ProtectionFault) as err:
            system.read(3 * PAGE)
        assert err.value.reason is FaultReason.UNATTACHED

    def test_nonresident_is_page_fault(self):
        system, _ = make_conv_system()
        system.switch_domain(1)
        with pytest.raises(PageFault):
            system.read(9 * PAGE)

    def test_every_completed_reference_leaves_paddr(self):
        """The combined TLB translates on the critical path: cache hits
        leave their physical address too."""
        system, _ = make_conv_system()
        system.switch_domain(1)
        for _ in range(2):
            assert system.access_fast(PAGE + 4, AccessType.READ) is None
            assert system.paddr == 101 * PAGE + 4
        assert system.stats["dcache.hit"] == 1

    def test_tagged_switch_keeps_tlb(self):
        system, _ = make_conv_system(asid_tagged=True)
        system.switch_domain(1)
        system.read(0)
        system.switch_domain(2)
        assert len(system.tlb) == 1  # domain 1's entry survives

    def test_untagged_switch_purges_tlb(self):
        """Without ASIDs, a switch discards even still-valid
        translations (§3.1)."""
        system, _ = make_conv_system(asid_tagged=False)
        system.switch_domain(1)
        system.read(0)
        assert len(system.tlb) == 1
        system.switch_domain(2)
        assert len(system.tlb) == 0
        # Both switches purged (the first found an empty TLB).
        assert system.stats["asidtlb.purge"] == 2
        assert system.stats["asidtlb.purge_removed"] == 1
