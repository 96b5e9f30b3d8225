"""Tests for the user-level paging server (Section 4.1.3 / Table 1)."""

from __future__ import annotations

import pytest

from repro.core.rights import AccessType, Rights
from repro.os.kernel import Kernel, SegmentationViolation
from repro.os.pager import PagerError, UserLevelPager
from repro.sim.machine import Machine


def paged_setup(model: str, *, compress=False, pages=4):
    kernel = Kernel(model)
    pager = UserLevelPager(kernel, compress=compress)
    domain = kernel.create_domain("app")
    segment = kernel.create_segment("data", pages)
    kernel.attach(domain, segment, Rights.RW)
    return kernel, pager, domain, segment


class TestPageOutIn:
    @pytest.mark.parametrize("model", ["plb", "pagegroup", "conventional"])
    def test_roundtrip_preserves_data(self, model):
        kernel, pager, domain, segment = paged_setup(model)
        vpn = segment.base_vpn
        pfn = kernel.translations.pfn_for(vpn)
        kernel.memory.write_page(pfn, b"important" + bytes(100))
        pager.page_out(vpn)
        assert not kernel.translations.is_resident(vpn)
        assert vpn in pager.evicted_pages
        pager.page_in(vpn)
        new_pfn = kernel.translations.pfn_for(vpn)
        assert kernel.memory.read_page(new_pfn).startswith(b"important")

    @pytest.mark.parametrize("model", ["plb", "pagegroup", "conventional"])
    def test_access_after_pageout_demand_pages_in(self, model):
        kernel, pager, domain, segment = paged_setup(model)
        machine = Machine(kernel)
        vaddr = kernel.params.vaddr(segment.base_vpn)
        machine.write(domain, vaddr)
        pager.page_out(segment.base_vpn)
        result = machine.read(domain, vaddr)
        assert result.faulted
        assert kernel.translations.is_resident(segment.base_vpn)
        assert segment.base_vpn not in pager.evicted_pages

    @pytest.mark.parametrize("model", ["plb", "pagegroup", "conventional"])
    def test_rights_restored_after_page_in(self, model):
        kernel, pager, domain, segment = paged_setup(model)
        machine = Machine(kernel)
        vaddr = kernel.params.vaddr(segment.base_vpn)
        machine.write(domain, vaddr)
        pager.page_out(segment.base_vpn)
        machine.write(domain, vaddr)  # faults, pages in, retries
        machine.write(domain, vaddr)  # and stays writable

    def test_page_out_frees_frame(self):
        kernel, pager, domain, segment = paged_setup("plb")
        free_before = kernel.memory.free_frames
        pager.page_out(segment.base_vpn)
        assert kernel.memory.free_frames == free_before + 1

    def test_double_page_out_rejected(self):
        kernel, pager, _, segment = paged_setup("plb")
        pager.page_out(segment.base_vpn)
        with pytest.raises(ValueError):
            pager.page_out(segment.base_vpn)

    def test_page_in_of_resident_page_rejected(self):
        kernel, pager, _, segment = paged_setup("plb")
        with pytest.raises(ValueError):
            pager.page_in(segment.base_vpn)

    def test_page_out_nonresident_rejected(self):
        kernel, pager, _, segment = paged_setup("plb")
        pager.page_out(segment.base_vpn)
        with pytest.raises(ValueError):
            pager.page_out(segment.base_vpn)


class TestCompression:
    def test_compressed_roundtrip(self):
        kernel, pager, domain, segment = paged_setup("plb", compress=True)
        vpn = segment.base_vpn
        pfn = kernel.translations.pfn_for(vpn)
        data = b"abc" * 1000 + bytes(1000)
        kernel.memory.write_page(pfn, data)
        pager.page_out(vpn)
        assert kernel.stats["compress.page_out"] == 1
        pager.page_in(vpn)
        assert kernel.memory.read_page(kernel.translations.pfn_for(vpn)) == data
        assert kernel.stats["compress.page_in"] == 1

    def test_compression_saves_disk_bytes(self):
        kernel, pager, _, segment = paged_setup("plb", compress=True)
        pager.page_out(segment.base_vpn)
        assert kernel.stats["disk.bytes_written"] < kernel.params.page_size


class TestModelSpecificProtocol:
    def test_pagegroup_moves_page_to_server_group(self):
        kernel, pager, domain, segment = paged_setup("pagegroup")
        vpn = segment.base_vpn
        pager.page_out(vpn)
        assert kernel.group_table.aid_of(vpn) == pager.server_group
        pager.page_in(vpn)
        assert kernel.group_table.aid_of(vpn) == segment.aid

    def test_plb_revokes_all_domains_during_operation(self):
        kernel, pager, domain, segment = paged_setup("plb")
        other = kernel.create_domain("other")
        kernel.attach(other, segment, Rights.READ)
        vpn = segment.base_vpn
        pager.page_out(vpn)
        assert domain.page_overrides[vpn] == Rights.NONE
        assert other.page_overrides[vpn] == Rights.NONE
        pager.page_in(vpn)
        # Overrides restored (none existed before the page-out).
        assert vpn not in domain.page_overrides
        assert vpn not in other.page_overrides

    def test_plb_preserves_preexisting_overrides(self):
        kernel, pager, domain, segment = paged_setup("plb")
        vpn = segment.base_vpn
        kernel.set_page_rights(domain, vpn, Rights.READ)
        pager.page_out(vpn)
        pager.page_in(vpn)
        assert domain.page_overrides[vpn] == Rights.READ

    def test_pager_counters(self):
        kernel, pager, _, segment = paged_setup("plb")
        pager.page_out(segment.base_vpn)
        pager.page_in(segment.base_vpn)
        assert kernel.stats["pager.page_out"] == 1
        assert kernel.stats["pager.page_in"] == 1


class TestRightsVerbsWhilePagedOut:
    """Page-in restores only what the page-out took away: a rights verb
    issued while the page is out is kept, on every model."""

    MODELS = ["plb", "pagegroup", "conventional"]

    def setup(self, model):
        kernel = Kernel(model, n_frames=64)
        a = kernel.create_domain("a")
        b = kernel.create_domain("b")
        segment = kernel.create_segment("s", 4, populate=True)
        kernel.attach(a, segment, Rights.RW)
        kernel.attach(b, segment, Rights.RW)
        return kernel, a, b, segment

    @pytest.mark.parametrize("model", MODELS)
    def test_set_page_rights_revocation_survives_page_in(self, model):
        kernel, a, b, segment = self.setup(model)
        pager = UserLevelPager(kernel)
        vpn = segment.base_vpn
        pager.page_out(vpn)
        kernel.set_page_rights(b, vpn, Rights.NONE)
        pager.page_in(vpn)
        with pytest.raises(SegmentationViolation):
            Machine(kernel).read(b, kernel.params.vaddr(vpn))

    @pytest.mark.parametrize("model", MODELS)
    def test_set_rights_all_domains_survives_page_in(self, model):
        kernel, a, b, segment = self.setup(model)
        pager = UserLevelPager(kernel)
        vpn = segment.base_vpn
        pager.page_out(vpn)
        kernel.set_rights_all_domains(vpn, Rights.READ)
        pager.page_in(vpn)
        machine = Machine(kernel)
        for domain in (a, b):
            machine.read(domain, kernel.params.vaddr(vpn))
            with pytest.raises(SegmentationViolation):
                machine.write(domain, kernel.params.vaddr(vpn))

    @pytest.mark.parametrize("model", MODELS)
    def test_set_segment_rights_survives_page_in(self, model):
        """``set_segment_rights`` clears a READ override while the page
        is out.  On the domain-page models page-in must not bring the
        override back; on the page-group model the override was a move
        to the domain's private group, which the segment verb leaves
        alone (rights are global per page, §4.1.2)."""
        kernel, a, b, segment = self.setup(model)
        vpn = segment.base_vpn
        kernel.set_page_rights(a, vpn, Rights.READ)
        pager = UserLevelPager(kernel)
        pager.page_out(vpn)
        kernel.set_segment_rights(a, segment, Rights.RW)
        pager.page_in(vpn)
        machine, vaddr = Machine(kernel), kernel.params.vaddr(vpn)
        if model == "pagegroup":
            with pytest.raises(SegmentationViolation):
                machine.write(a, vaddr)
        else:
            machine.write(a, vaddr)

    def test_plb_page_in_restores_rights_on_every_cpu(self):
        """The page-out's revocation reached every CPU over the bus, so
        the page-in's restore must too, or a remote CPU keeps denying."""
        kernel = Kernel("plb", n_cpus=2)
        domain = kernel.create_domain("app")
        segment = kernel.create_segment("data", 4, populate=True)
        kernel.attach(domain, segment, Rights.RW)
        vaddr = kernel.params.vaddr(segment.base_vpn)
        cpu0, cpu1 = (Machine(kernel, cpu=ctx) for ctx in kernel.cpus)
        cpu0.read(domain, vaddr)
        cpu1.read(domain, vaddr)
        kernel.set_current_cpu(0)
        pager = UserLevelPager(kernel)
        pager.page_out(segment.base_vpn)
        pager.page_in(segment.base_vpn)
        kernel.set_current_cpu(1)
        kernel.system.access(vaddr, AccessType.READ)  # no protection fault
        assert kernel.stats["smp.shootdown.verb.page_in"] == 1


class TestReentrancyAndIdempotence:
    """The pager verbs are guarded: misuse is a typed error, never
    silent corruption (the chaos harness leans on these guarantees)."""

    @pytest.mark.parametrize("model", ["plb", "pagegroup", "conventional"])
    def test_double_page_out_is_a_typed_error(self, model):
        kernel, pager, domain, segment = paged_setup(model)
        vpn = segment.base_vpn
        pager.page_out(vpn)
        with pytest.raises(PagerError, match="already paged out"):
            pager.page_out(vpn)
        # The eviction record survives the failed second attempt.
        assert vpn in pager.evicted_pages
        pager.page_in(vpn)
        assert kernel.translations.is_resident(vpn)

    @pytest.mark.parametrize("model", ["plb", "pagegroup", "conventional"])
    def test_page_in_of_never_evicted_page_is_a_typed_error(self, model):
        kernel, pager, domain, segment = paged_setup(model)
        with pytest.raises(PagerError, match="not paged out by this server"):
            pager.page_in(segment.base_vpn)
        assert kernel.translations.is_resident(segment.base_vpn)

    def test_page_out_of_nonresident_page_is_a_typed_error(self):
        kernel, pager, domain, segment = paged_setup("plb")
        vpn = segment.base_vpn
        kernel.free_page(vpn)
        with pytest.raises(PagerError, match="not resident"):
            pager.page_out(vpn)

    def test_in_flight_page_is_busy_to_both_verbs(self):
        kernel, pager, domain, segment = paged_setup("plb")
        vpn = segment.base_vpn
        pager._busy.add(vpn)
        try:
            with pytest.raises(PagerError, match="in flight"):
                pager.page_out(vpn)
            with pytest.raises(PagerError, match="in flight"):
                pager.page_in(vpn)
        finally:
            pager._busy.discard(vpn)

    def test_fault_handler_does_not_recurse_into_busy_page(self):
        # A fault raised *by* an in-flight paging operation must not
        # re-enter page_in on the same page.
        kernel, pager, domain, segment = paged_setup("plb")
        vpn = segment.base_vpn
        pager.page_out(vpn)
        pager._busy.add(vpn)
        try:
            assert pager._fault_page_in(vpn) is False
        finally:
            pager._busy.discard(vpn)
        # Once the operation is no longer in flight, the fault handler
        # services the page normally.
        assert pager._fault_page_in(vpn) is True
        assert kernel.translations.is_resident(vpn)

    def test_fault_on_dead_segment_drops_stale_eviction(self):
        kernel, pager, domain, segment = paged_setup("plb")
        vpn = segment.base_vpn
        pager.page_out(vpn)
        kernel.detach(domain, segment)
        kernel.destroy_segment(segment)
        assert pager._fault_page_in(vpn) is False
        assert vpn not in pager.evicted_pages
        assert kernel.stats["pager.stale_eviction_dropped"] == 1

    def test_failed_attempt_leaves_eviction_state_intact(self):
        kernel, pager, domain, segment = paged_setup("plb")
        vpn = segment.base_vpn
        kernel.set_page_rights(domain, vpn, Rights.READ)
        pager.page_out(vpn)
        state_before = pager._evicted[vpn]
        with pytest.raises(PagerError):
            pager.page_out(vpn)  # double page-out
        assert pager._evicted[vpn] is state_before
        pager.page_in(vpn)
        assert domain.page_overrides[vpn] == Rights.READ
