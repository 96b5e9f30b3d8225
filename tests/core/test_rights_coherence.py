"""Kernel rights changes must rewrite, not orphan, resident TLB state.

The stale-rights bug class: a protection verb updates the kernel tables
but leaves a hardware entry (AID-TLB tag/rights, ASID-TLB rights)
carrying the old grant.  These tests pin the in-place rewrite for the
page-group and conventional models and cross-check with the structural
invariant sweep (``repro.check.invariants``).
"""

from __future__ import annotations

import pytest

from repro.check import check_invariants
from repro.core.mmu import ProtectionFault
from repro.core.rights import AccessType, Rights
from repro.faults.scrub import Scrubber
from repro.os.kernel import Kernel
from repro.sim.machine import SMPMachine


def touch(kernel, domain, vpn, access=AccessType.READ):
    kernel.switch_to(domain)
    return kernel.system.access(kernel.params.vaddr(vpn), access)


class TestPageGroupTLBRights:
    def make(self):
        kernel = Kernel("pagegroup")
        a = kernel.create_domain("a")
        b = kernel.create_domain("b")
        segment = kernel.create_segment("s", 4)
        kernel.attach(a, segment, Rights.RW)
        kernel.attach(b, segment, Rights.RW)
        return kernel, a, b, segment

    def test_set_rights_all_rewrites_resident_entry(self):
        kernel, a, b, segment = self.make()
        vpn = segment.base_vpn
        touch(kernel, a, vpn)  # AID-TLB entry now resident with RW
        kernel.set_rights_all_domains(vpn, Rights.READ)
        entries = dict(kernel.system.tlb.items())
        assert entries[vpn].rights == Rights.READ
        with pytest.raises(ProtectionFault):
            touch(kernel, a, vpn, AccessType.WRITE)
        assert check_invariants(kernel) == []

    def test_set_page_rights_retags_resident_entry(self):
        """The page moves to the domain's private group; the resident
        TLB entry must carry the new AID or the old group keeps access."""
        kernel, a, b, segment = self.make()
        vpn = segment.base_vpn
        touch(kernel, a, vpn)
        kernel.set_page_rights(a, vpn, Rights.READ)
        entries = dict(kernel.system.tlb.items())
        assert entries[vpn].aid == kernel.group_table.aid_of(vpn)
        assert entries[vpn].rights == Rights.READ
        # The other domain does not hold the private group.
        with pytest.raises(ProtectionFault) as exc:
            touch(kernel, b, vpn)
        assert exc.value.reason.value == "unattached"
        assert check_invariants(kernel) == []

    def test_revoked_group_rights_deny_write_after_hit(self):
        kernel, a, b, segment = self.make()
        vpn = segment.base_vpn
        touch(kernel, a, vpn, AccessType.WRITE)  # entry resident, RW
        kernel.set_page_rights(a, vpn, Rights.READ)
        with pytest.raises(ProtectionFault) as exc:
            touch(kernel, a, vpn, AccessType.WRITE)
        assert exc.value.reason.value == "denied"


class TestConventionalTLBRights:
    def make(self):
        kernel = Kernel("conventional")
        a = kernel.create_domain("a")
        segment = kernel.create_segment("s", 4)
        kernel.attach(a, segment, Rights.RW)
        return kernel, a, segment

    def test_set_page_rights_rewrites_resident_entry(self):
        kernel, a, segment = self.make()
        vpn = segment.base_vpn
        touch(kernel, a, vpn)  # ASID-TLB entry resident with RW
        kernel.set_page_rights(a, vpn, Rights.READ)
        entries = dict(kernel.system.tlb.items())
        assert entries[(a.pd_id, vpn)].rights == Rights.READ
        with pytest.raises(ProtectionFault):
            touch(kernel, a, vpn, AccessType.WRITE)
        assert check_invariants(kernel) == []

    def test_detach_leaves_no_replica_behind(self):
        kernel, a, segment = self.make()
        vpn = segment.base_vpn
        touch(kernel, a, vpn)
        kernel.detach(a, segment)
        assert not any(
            key[0] == a.pd_id and segment.base_vpn <= key[1] < segment.base_vpn + 4
            for key, _ in kernel.system.tlb.items()
        )
        assert check_invariants(kernel) == []


class TestUntaggedConventionalTLBRights:
    """Without ASIDs every entry is tagged 0 and the TLB is purged on each
    switch, so it holds only the running domain's entries: another
    domain's rights change must leave them alone."""

    def make(self, n_cpus=1):
        kernel = Kernel(
            "conventional", n_cpus=n_cpus, system_options={"asid_tagged": False}
        )
        a = kernel.create_domain("a")
        b = kernel.create_domain("b")
        segment = kernel.create_segment("s", 4)
        kernel.attach(a, segment, Rights.READ)
        kernel.attach(b, segment, Rights.READ)
        return kernel, a, b, segment

    def test_other_domains_page_rights_leave_running_entry_alone(self):
        kernel, a, b, segment = self.make()
        vpn = segment.base_vpn
        touch(kernel, b, vpn)  # b runs; its entry (0, vpn) holds READ
        kernel.set_page_rights(a, vpn, Rights.RW)
        assert dict(kernel.system.tlb.items())[(0, vpn)].rights == Rights.READ
        with pytest.raises(ProtectionFault):
            kernel.system.access(kernel.params.vaddr(vpn), AccessType.WRITE)
        assert check_invariants(kernel) == []

    def test_range_rights_change_reaches_no_other_domains_entries(self):
        kernel, a, b, segment = self.make(n_cpus=2)
        machine = SMPMachine(kernel)
        vpns = list(segment.vpns())
        for vpn in vpns:
            machine.touch_on(1, b, kernel.params.vaddr(vpn))
        kernel.set_current_cpu(0)
        before = kernel.stats.snapshot()
        kernel.set_pages_rights(a, vpns, Rights.RW)
        assert kernel.stats.delta(before)["smp.shootdown.msgs"] == 1
        cpu1 = kernel.cpus[1].system
        assert {key: entry.rights for key, entry in cpu1.tlb.items()} == {
            (0, vpn): Rights.READ for vpn in vpns
        }
        with pytest.raises(ProtectionFault):
            cpu1.access(kernel.params.vaddr(vpns[-1]), AccessType.WRITE)
        assert check_invariants(kernel) == []

    def test_excess_rights_are_flagged_and_scrubbed(self):
        kernel, a, b, segment = self.make()
        vpn = segment.base_vpn
        touch(kernel, b, vpn)
        dict(kernel.system.tlb.items())[(0, vpn)].rights = Rights.RW
        problems = check_invariants(kernel)
        assert len(problems) == 1 and problems[0].startswith("asidtlb:")
        assert Scrubber(kernel).scrub() == 1
        assert dict(kernel.system.tlb.items())[(0, vpn)].rights == Rights.READ
        assert check_invariants(kernel) == []
