"""The paper's claims as executable checks, one test per claim.

This file is the machine-checkable core of EXPERIMENTS.md: each test
reruns a (small) configuration of the relevant experiment and asserts
the paper's stated number or direction.  If the implementation drifts
from the paper, this file is what fails.  A claim asserted here is
asserted only here: the bench under ``benchmarks/`` that prints the
same artifact (Figures 1-2, the entry-size and cache-premium numbers,
§4.2's critical path) only prints it.
"""

from __future__ import annotations

import pytest

from repro.analysis.figures import figure1_fields, figure2_check_matrix
from repro.core.costs import (
    critical_path,
    cycles_for,
    plb_size_advantage,
    vivt_overhead_ratio,
)
from repro.core.rights import Rights
from repro.os.kernel import Kernel
from repro.sim.machine import Machine
from repro.workloads.attach import AttachConfig, AttachDetachWorkload
from repro.workloads.rpc import RPCConfig, RPCWorkload
from repro.workloads.txn import TransactionalVM, TxnConfig


class TestFigureClaims:
    def test_claim_fig1_field_widths(self):
        """Figure 1: 52-bit VPN, 16-bit PD-ID, 3-bit rights: a 71-bit
        entry."""
        fields = figure1_fields()
        assert (
            fields.vpn_bits, fields.pd_id_bits, fields.rights_bits, fields.entry_bits
        ) == (52, 16, 3, 71)

    def test_claim_fig2_check_semantics(self):
        """Figure 2: every protection-check scenario behaves as drawn."""
        results = figure2_check_matrix()
        assert len(results) >= 8
        assert all(entry["matches"] for entry in results)


class TestQuantitativeClaims:
    def test_claim_s4_plb_entries_about_25pct_smaller(self):
        """§4: 'about 25%, assuming the field sizes in Figure 1 and a
        physical address of 36 bits'."""
        assert 0.20 <= plb_size_advantage() <= 0.30

    def test_claim_s321_vivt_about_10pct_larger(self):
        """§3.2.1: 'a virtually tagged cache would be about 10% larger'."""
        assert 1.07 <= vivt_overhead_ratio(cache_bytes=16 * 1024) <= 1.13

    def test_claim_s42_sequential_pagegroup_check(self):
        """§4.2: the page-group check is two dependent steps; the PLB is
        one (wider) lookup."""
        assert critical_path("pagegroup").sequential_stages == 2
        assert "THEN" in critical_path("pagegroup").description
        assert critical_path("plb").sequential_stages == 1
        # The PLB's single compare (VPN+PD-ID) is wider than either of
        # the page-group model's per-stage compares (VPN; AID).
        from repro.core.params import DEFAULT_PARAMS

        plb_compare = critical_path("plb").tag_compare_bits
        assert plb_compare > DEFAULT_PARAMS.vpn_bits
        assert plb_compare > DEFAULT_PARAMS.aid_bits


class TestStructuralClaims:
    def test_claim_s321_translation_not_replicated(self):
        """§3.2.1: 'the TLB requires only one entry for each
        virtual-to-physical page mapping' on the PLB system."""
        kernel = Kernel("plb")
        machine = Machine(kernel)
        segment = kernel.create_segment("s", 4)
        for index in range(3):
            domain = kernel.create_domain(f"d{index}")
            kernel.attach(domain, segment, Rights.RW)
            for vpn in segment.vpns():
                machine.read(domain, kernel.params.vaddr(vpn))
        assert len(kernel.system.tlb) == 4
        assert kernel.system.plb.entries_for_page(segment.base_vpn) == 3

    def test_claim_s414_plb_switch_is_one_register(self):
        """§4.1.4: 'requires changing only a single register'."""
        report = RPCWorkload(Kernel("plb"), RPCConfig(calls=20)).run()
        assert report.stats["pdid.write"] == report.switches
        assert report.stats["plb.purge"] == 0
        assert report.stats["group_reload"] == 0

    def test_claim_s414_pagegroup_switch_purges_and_reloads(self):
        """§4.1.4: 'involves purging the active page-group cache and
        loading in the page-groups for the new domain'."""
        report = RPCWorkload(Kernel("pagegroup"), RPCConfig(calls=20)).run()
        assert report.stats["pgcache.purge"] >= report.switches
        assert report.stats["group_reload"] > report.switches

    def test_claim_t1_plb_detach_inspects_page_group_does_not(self):
        """Table 1: detach sweeps the PLB; page-group detach is O(1)."""
        config = AttachConfig(segments=4, pages_per_segment=4)
        plb = AttachDetachWorkload(Kernel("plb"), config).run()
        pagegroup = AttachDetachWorkload(Kernel("pagegroup"), config).run()
        assert plb.stats["plb.sweep_inspected"] > 0
        assert pagegroup.stats.total("plb") == 0

    def test_claim_s412_lock_alternation_only_with_domain_groups(self):
        """§4.1.2: per-domain lock groups make shared pages alternate."""
        base = dict(db_pages=16, transactions=6, touches_per_txn=12,
                    concurrent=2, seed=4, write_fraction=0.1, zipf_s=1.5)
        domain_strategy = TransactionalVM(
            Kernel("pagegroup"), TxnConfig(lock_strategy="domain", **base)
        ).run()
        page_strategy = TransactionalVM(
            Kernel("pagegroup"), TxnConfig(lock_strategy="page", **base)
        ).run()
        assert domain_strategy.group_alternations > 0
        assert page_strategy.group_alternations == 0


class TestSectionTwoClaims:
    def test_claim_s22_no_hazards_in_sasos(self):
        """§2.2: 'Neither synonyms nor homonyms need exist on a single
        address space system.'"""
        kernel = Kernel("plb", system_options={"detect_hazards": True,
                                               "cache_ways": 2})
        machine = Machine(kernel)
        segment = kernel.create_segment("shared", 8)
        for index in range(3):
            domain = kernel.create_domain(f"d{index}")
            kernel.attach(domain, segment, Rights.RW)
            for vpn in segment.vpns():
                machine.write(domain, kernel.params.vaddr(vpn, 64))
        assert kernel.stats["dcache.synonym_hazard"] == 0
        assert kernel.stats["dcache.homonym_hazard"] == 0

    def test_claim_s22_multias_has_both_hazards(self):
        """§2.2: multi-AS VIVT caches suffer synonyms and homonyms."""
        from repro.core.rights import AccessType
        from repro.multias.osbase import MultiASOS

        os = MultiASOS(cache_ways=2)
        a = os.create_process("a")
        b = os.create_process("b")
        pfn = os.map_private(a, 0x10)
        os.map_shared(b, 0x11, pfn)  # synonym
        os.map_private(a, 0x90)
        os.map_private(b, 0x90)  # homonym
        os.access(a, 0x10 << 12, AccessType.WRITE)
        os.access(b, 0x11 << 12)
        os.access(a, 0x90 << 12)
        os.access(b, 0x90 << 12)
        assert os.synonym_hazards > 0
        assert os.homonym_hazards > 0

    def test_claim_s21_sharing_by_reference_beats_copying(self):
        """§2.1: passing data by reference avoids copying costs."""
        import dataclasses

        from repro.workloads.fileserver import FileServer, FileServerConfig

        config = FileServerConfig(files=6, file_pages=2, clients=2,
                                  requests=20, lines_per_request=16)
        copy = FileServer(Kernel("plb"), config).run()
        share = FileServer(
            Kernel("plb"), dataclasses.replace(config, mode="share")
        ).run()
        assert share.stats["refs"] < copy.stats["refs"]
        assert cycles_for(share.stats) < cycles_for(copy.stats)


class TestSection31Claims:
    def test_claim_s31_asid_tlb_replicates(self):
        """§3.1: 'Sharing of a page by multiple domains causes
        replication of TLB protection entries.'"""
        kernel = Kernel("conventional")
        machine = Machine(kernel)
        segment = kernel.create_segment("s", 2)
        for index in range(4):
            domain = kernel.create_domain(f"d{index}")
            kernel.attach(domain, segment, Rights.RW)
            machine.read(domain, kernel.params.vaddr(segment.base_vpn))
        assert kernel.system.tlb.replicas(segment.base_vpn) == 4

    def test_claim_s31_untagged_purge_discards_valid_translations(self):
        """§3.1: 'purging removes ... also the translation information,
        which is the same for all domains.'"""
        kernel = Kernel("conventional", system_options={"asid_tagged": False})
        machine = Machine(kernel)
        segment = kernel.create_segment("s", 2)
        a = kernel.create_domain("a")
        b = kernel.create_domain("b")
        kernel.attach(a, segment, Rights.RW)
        kernel.attach(b, segment, Rights.RW)
        machine.read(a, kernel.params.vaddr(segment.base_vpn))
        fills = kernel.stats["asidtlb.fill"]
        machine.read(b, kernel.params.vaddr(segment.base_vpn))
        # The same translation had to be refetched after the purge.
        assert kernel.stats["asidtlb.fill"] == fills + 1
