"""Recovery paths: scrubbing, machine checks, degradation, disk retries."""

from __future__ import annotations

import pytest

from repro.check.invariants import check_invariants
from repro.core.rights import Rights
from repro.faults import FaultEvent, FaultInjector, FaultPlan, MachineCheck
from repro.faults.scrub import Scrubber
from repro.hardware.registers import PIDEntry
from repro.os.kernel import MCE_DEGRADE_THRESHOLD, Kernel, SegmentationViolation
from repro.os.pager import UserLevelPager
from repro.sim.machine import Machine


def cached_setup(model: str):
    """A kernel with one RW page whose protection entry is cached."""
    kernel = Kernel(model)
    machine = Machine(kernel)
    domain = kernel.create_domain("app")
    segment = kernel.create_segment("data", 2)
    kernel.attach(domain, segment, Rights.RW)
    vaddr = kernel.params.vaddr(segment.base_vpn)
    machine.write(domain, vaddr)
    return kernel, machine, domain, segment, vaddr


class TestScrubber:
    def test_plb_rights_corruption_repaired_in_place(self):
        kernel, machine, domain, segment, vaddr = cached_setup("plb")
        for _, entry in kernel.system.plb.items():
            entry.rights = Rights.NONE
        repairs = Scrubber(kernel).scrub()
        assert repairs >= 1
        assert not machine.write(domain, vaddr).faulted
        assert kernel.stats["scrub.repairs"] == repairs
        assert kernel.stats["scrub.runs"] == 1

    def test_pagegroup_aid_corruption_repaired(self):
        kernel, machine, domain, segment, vaddr = cached_setup("pagegroup")
        for _, entry in kernel.system.tlb.items():
            entry.aid = entry.aid + 7
        repairs = Scrubber(kernel).scrub()
        assert repairs >= 1
        assert not machine.write(domain, vaddr).faulted

    def test_conventional_rights_corruption_repaired(self):
        kernel, machine, domain, segment, vaddr = cached_setup("conventional")
        for _, entry in kernel.system.tlb.items():
            entry.rights = Rights.NONE
        repairs = Scrubber(kernel).scrub()
        assert repairs >= 1
        assert not machine.write(domain, vaddr).faulted

    @pytest.mark.parametrize("model", ["plb", "pagegroup", "conventional"])
    def test_clean_caches_need_no_repairs(self, model):
        kernel, machine, domain, segment, vaddr = cached_setup(model)
        assert Scrubber(kernel).scrub() == 0
        assert kernel.stats.get("scrub.repairs", 0) == 0

    def test_register_file_holder_is_repaired(self):
        """The PA-RISC register file is repaired like the group cache: a
        group the domain does not hold is dropped, charging no write."""
        kernel = Kernel("pagegroup", system_options={"group_holder": "registers"})
        machine = Machine(kernel)
        domain = kernel.create_domain("app")
        segment = kernel.create_segment("data", 2)
        kernel.attach(domain, segment, Rights.RW)
        machine.write(domain, kernel.params.vaddr(segment.base_vpn))
        kernel.system.groups.install(PIDEntry(group=99))
        assert check_invariants(kernel) == [
            f"groups: holder has group 99 which domain {domain.pd_id} does not hold"
        ]
        before = kernel.stats.snapshot()
        assert Scrubber(kernel).scrub() == 1
        delta = kernel.stats.delta(before).as_dict()
        assert all(name.startswith("scrub.") for name in delta)
        assert 99 not in kernel.system.groups
        assert check_invariants(kernel) == []

    def test_repairs_are_not_kernel_maintenance_traffic(self):
        kernel, machine, domain, segment, vaddr = cached_setup("plb")
        for _, entry in kernel.system.plb.items():
            entry.rights = Rights.READ
        invalidations_before = kernel.stats.get("plb.invalidate", 0)
        Scrubber(kernel).scrub()
        assert kernel.stats.get("plb.invalidate", 0) == invalidations_before


class TestMachineCheck:
    def test_handler_flushes_and_rebuilds_from_authority(self):
        kernel, machine, domain, segment, vaddr = cached_setup("plb")
        for _, entry in kernel.system.plb.items():
            entry.rights = Rights.NONE
        kernel.handle_machine_check(MachineCheck("plb", detail="test"))
        # The corrupt entry is gone; the access refaults and refills
        # from the attachment tables.
        assert not machine.write(domain, vaddr).faulted
        assert kernel.stats["kernel.fault.machine_check"] == 1
        assert kernel.stats["faults.recovered"] == 1

    def test_repeated_machine_checks_degrade_the_structure(self):
        kernel, machine, domain, segment, vaddr = cached_setup("plb")
        for _ in range(MCE_DEGRADE_THRESHOLD):
            kernel.handle_machine_check(MachineCheck("plb"))
        assert kernel.system.plb.disabled
        assert kernel.stats["kernel.degraded.plb"] == 1
        # Degraded mode still enforces protection via table walks.
        assert not machine.write(domain, vaddr).faulted
        assert kernel.stats["plb.disabled_walk"] >= 1
        other = kernel.create_domain("other")
        with pytest.raises(SegmentationViolation):
            machine.write(other, vaddr)

    def test_degrade_event_disables_the_structure(self):
        kernel, machine, domain, segment, vaddr = cached_setup("plb")
        injector = FaultInjector(
            FaultPlan(events=(FaultEvent("cache", "degrade", at=0, arg=1),))
        )
        injector.arm(kernel)
        injector.tick(0)
        assert kernel.system.tlb.disabled
        assert not machine.write(domain, vaddr).faulted
        injector.disarm()


class TestPagerRetry:
    def test_transient_read_errors_retried_with_backoff(self):
        kernel = Kernel("plb")
        pager = UserLevelPager(kernel)
        domain = kernel.create_domain("app")
        segment = kernel.create_segment("data", 2)
        kernel.attach(domain, segment, Rights.RW)
        vpn = segment.base_vpn
        pfn = kernel.translations.pfn_for(vpn)
        kernel.memory.write_page(pfn, b"precious" + bytes(32))
        pager.page_out(vpn)
        injector = FaultInjector(
            FaultPlan(events=(FaultEvent("disk", "transient_read", at=0, arg=2),))
        )
        injector.arm(kernel)
        pager.page_in(vpn)
        injector.disarm()
        assert kernel.stats["disk.retries"] == 2
        assert kernel.stats["disk.backoff_slots"] == 3  # 1 + 2, exponential
        assert kernel.stats["faults.recovered"] == 1
        new_pfn = kernel.translations.pfn_for(vpn)
        assert kernel.memory.read_page(new_pfn).startswith(b"precious")

    def test_unrecoverable_corruption_degrades_to_zero_fill(self):
        kernel = Kernel("plb")
        pager = UserLevelPager(kernel)
        domain = kernel.create_domain("app")
        segment = kernel.create_segment("data", 2)
        kernel.attach(domain, segment, Rights.RW)
        vpn = segment.base_vpn
        pager.page_out(vpn)
        kernel.backing._pages[vpn] = b"permanently rotten"
        pager.page_in(vpn)
        assert kernel.stats["pager.data_loss"] == 1
        new_pfn = kernel.translations.pfn_for(vpn)
        assert kernel.memory.read_page(new_pfn) == bytes(kernel.params.page_size)

    def test_write_failure_leaves_page_resident_and_accessible(self):
        from repro.faults.errors import DiskError

        kernel = Kernel("plb")
        machine = Machine(kernel)
        pager = UserLevelPager(kernel)
        domain = kernel.create_domain("app")
        segment = kernel.create_segment("data", 2)
        kernel.attach(domain, segment, Rights.RW)
        vpn = segment.base_vpn
        vaddr = kernel.params.vaddr(vpn)
        machine.write(domain, vaddr)
        injector = FaultInjector(
            FaultPlan(events=(FaultEvent("disk", "transient_write", at=0, arg=99),))
        )
        injector.arm(kernel)
        with pytest.raises(DiskError):
            pager.page_out(vpn)
        injector.disarm()
        assert kernel.translations.is_resident(vpn)
        assert vpn not in pager.evicted_pages
        assert not machine.write(domain, vaddr).faulted
