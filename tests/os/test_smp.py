"""SMP kernel: per-CPU contexts, the shootdown bus, and its fault contract."""

from __future__ import annotations

import pytest

from repro.check.invariants import check_invariants
from repro.core.mmu import PageFault, ProtectionFault
from repro.core.rights import AccessType, Rights
from repro.faults import FaultEvent, FaultInjector, FaultPlan
from repro.os.kernel import MODELS, Kernel, KernelError, SegmentationViolation
from repro.sim.machine import Machine, SMPMachine
from repro.sim.trace import Ref


def smp_kernel(model: str = "plb", n_cpus: int = 2) -> Kernel:
    return Kernel(model, n_frames=64, n_cpus=n_cpus)


def shared_setup(kernel: Kernel, *, rights: Rights = Rights.RW):
    domain = kernel.create_domain("app")
    segment = kernel.create_segment("data", 4)
    kernel.attach(domain, segment, rights)
    return domain, segment


class TestTopology:
    def test_n_cpus_must_be_positive(self):
        with pytest.raises(ValueError):
            Kernel("plb", n_cpus=0)

    def test_cpu0_shares_the_kernel_stats(self):
        """Every CPU, not just CPU 0, charges the kernel's one store."""
        kernel = smp_kernel()
        for ctx in kernel.cpus:
            assert ctx.system.stats is kernel.stats
        domain, segment = shared_setup(kernel)
        refs = kernel.stats["refs"]
        SMPMachine(kernel).touch_on(1, domain, kernel.params.vaddr(segment.base_vpn))
        assert kernel.stats["refs"] == refs + 1

    def test_set_current_cpu_rebinds_the_system(self):
        kernel = smp_kernel()
        assert kernel.system is kernel.cpus[0].system
        kernel.set_current_cpu(1)
        assert kernel.system is kernel.cpus[1].system
        with pytest.raises(KernelError):
            kernel.set_current_cpu(5)

    def test_merged_stats_equals_kernel_stats_on_one_cpu(self):
        kernel = Kernel("plb", n_frames=64)
        domain, segment = shared_setup(kernel)
        Machine(kernel).write(domain, kernel.params.vaddr(segment.base_vpn))
        assert kernel.merged_stats().as_dict() == kernel.stats.as_dict()


def _pure_hit(kernel, touch) -> bool:
    """``touch()`` is served entirely from warm hardware: no fault, and
    every counter it moves is ``refs`` or a hit (no refill, no miss)."""
    before = kernel.stats.snapshot()
    faulted = touch().faulted
    delta = kernel.stats.delta(before).as_dict()
    return not faulted and all(key == "refs" or key.endswith(".hit") for key in delta)


class TestEpochs:
    """Each CPU's hardware keeps its own protection epoch.

    An epoch is the stretch of references between two changes that
    reach a CPU's cached entries.  A verb ends it on the issuing CPU and
    on exactly the remote CPUs its shootdown reaches; nothing else does.
    """

    def test_verbs_bump_only_the_issuing_cpus_epoch(self):
        kernel = smp_kernel()
        domain, segment = shared_setup(kernel)
        smp = SMPMachine(kernel)
        vaddr = kernel.params.vaddr(segment.base_vpn)
        smp.touch_on(1, domain, vaddr)
        kernel.set_current_cpu(0)
        before = kernel.stats.snapshot()
        kernel.create_domain("other")  # traps on CPU 0, no shootdown
        assert kernel.stats.delta(before)["smp.shootdown.msgs"] == 0
        assert _pure_hit(kernel, lambda: smp.touch_on(1, domain, vaddr))

    def test_shootdown_bumps_the_remote_cpus_epoch(self):
        kernel = smp_kernel()
        domain, segment = shared_setup(kernel)
        smp = SMPMachine(kernel)
        vaddr = kernel.params.vaddr(segment.base_vpn)
        assert not smp.touch_on(1, domain, vaddr, AccessType.WRITE).faulted
        kernel.set_current_cpu(0)
        before = kernel.stats.snapshot()
        kernel.set_page_rights(domain, segment.base_vpn, Rights.READ)
        assert kernel.stats.delta(before)["smp.shootdown.msgs"] == 1
        # CPU 1 cached write permission; the message must have reached
        # its hardware, which now refuses the write on its own.
        fault = kernel.cpus[1].system.access_fast(vaddr, AccessType.WRITE)
        assert isinstance(fault, ProtectionFault)
        assert check_invariants(kernel) == []

    def test_epoch_survives_a_round_trip(self):
        kernel = smp_kernel()
        domain, segment = shared_setup(kernel)
        smp = SMPMachine(kernel)
        vaddr = kernel.params.vaddr(segment.base_vpn)
        smp.touch_on(1, domain, vaddr)
        kernel.set_current_cpu(0)
        kernel.set_current_cpu(1)
        assert _pure_hit(kernel, lambda: smp.touch_on(1, domain, vaddr))


class TestShootdownSemantics:
    @pytest.mark.parametrize("model", MODELS)
    def test_rights_revocation_reaches_remote_cpus(self, model):
        kernel = smp_kernel(model)
        domain, segment = shared_setup(kernel)
        smp = SMPMachine(kernel)
        vaddr = kernel.params.vaddr(segment.base_vpn)
        for cpu in (0, 1):
            assert not smp.touch_on(cpu, domain, vaddr, AccessType.WRITE).faulted

        kernel.set_current_cpu(0)
        kernel.set_page_rights(domain, segment.base_vpn, Rights.READ)
        assert not smp.touch_on(1, domain, vaddr).faulted
        with pytest.raises(SegmentationViolation):
            smp.touch_on(1, domain, vaddr, AccessType.WRITE)

    @pytest.mark.parametrize("model", MODELS)
    def test_attach_is_lazy_across_cpus(self, model):
        """Grants broadcast nothing — remote CPUs fault entries in on
        their next miss (Table 1's attach row, per CPU)."""
        kernel = smp_kernel(model)
        before = kernel.stats.snapshot()
        shared_setup(kernel)
        delta = kernel.stats.delta(before)
        assert delta["smp.shootdown.msgs"] == 0
        assert delta["smp.tlb_shootdown.msgs"] == 0

    @pytest.mark.parametrize(
        "downgrade",
        [
            lambda kernel, domain, segment: kernel.set_segment_rights(
                domain, segment, Rights.READ
            ),
            lambda kernel, domain, segment: kernel.grant_group(
                domain, segment.aid, write_disable=True
            ),
        ],
        ids=["set_segment_rights", "grant_group"],
    )
    def test_group_write_downgrade_reaches_remote_cpus(self, downgrade):
        """Setting the write-disable bit of a held group must reach a
        remote CPU running the domain: its holder's cached entry would
        otherwise keep granting writes the domain no longer has."""
        kernel = smp_kernel("pagegroup")
        domain, segment = shared_setup(kernel)
        smp = SMPMachine(kernel)
        vaddr = kernel.params.vaddr(segment.base_vpn)
        for cpu in (0, 1):
            assert not smp.touch_on(cpu, domain, vaddr, AccessType.WRITE).faulted
        kernel.set_current_cpu(0)
        before = kernel.stats.snapshot()
        downgrade(kernel, domain, segment)
        assert kernel.stats.delta(before)["smp.shootdown.msgs"] == 1
        assert check_invariants(kernel) == []
        assert not smp.touch_on(1, domain, vaddr).faulted
        with pytest.raises(SegmentationViolation):
            smp.touch_on(1, domain, vaddr, AccessType.WRITE)
        assert check_invariants(kernel) == []

    def test_group_write_upgrade_reaches_remote_cpus_and_fresh_grants_stay_lazy(self):
        kernel = smp_kernel("pagegroup")
        domain, segment = shared_setup(kernel, rights=Rights.READ)
        smp = SMPMachine(kernel)
        vaddr = kernel.params.vaddr(segment.base_vpn)
        for cpu in (0, 1):
            assert not smp.touch_on(cpu, domain, vaddr).faulted
        kernel.set_current_cpu(0)
        before = kernel.stats.snapshot()
        kernel.grant_group(domain, kernel.create_page_group())
        kernel.grant_group(domain, segment.aid, write_disable=True)  # unchanged bit
        assert kernel.stats.delta(before)["smp.shootdown.msgs"] == 0
        kernel.set_segment_rights(domain, segment, Rights.RW)
        assert kernel.stats.delta(before)["smp.shootdown.msgs"] == 1
        assert check_invariants(kernel) == []
        assert not smp.touch_on(1, domain, vaddr, AccessType.WRITE).faulted

    def test_remote_costs_are_counted_per_verb(self):
        kernel = smp_kernel("plb", n_cpus=3)
        domain, segment = shared_setup(kernel)
        smp = SMPMachine(kernel)
        vaddr = kernel.params.vaddr(segment.base_vpn)
        for cpu in range(3):
            smp.touch_on(cpu, domain, vaddr)
        kernel.set_current_cpu(0)
        before = kernel.stats.snapshot()
        kernel.set_page_rights(domain, segment.base_vpn, Rights.NONE)
        delta = kernel.stats.delta(before)
        assert delta["smp.shootdown.msgs"] == 2
        assert delta["smp.shootdown.verb.set_page_rights"] == 2


class TestSMPMachineDeterminism:
    def _shards(self, kernel, domain, segment, n: int):
        params = kernel.params
        vpns = list(segment.vpns())
        return [
            [
                Ref(domain.pd_id, params.vaddr(vpns[(i + k) % len(vpns)]),
                    AccessType.WRITE if (i + k) % 3 == 0 else AccessType.READ)
                for i in range(n)
            ]
            for k in range(2)
        ]

    def test_same_shards_same_quantum_same_stats(self):
        runs = []
        for _ in range(2):
            kernel = smp_kernel()
            domain, segment = shared_setup(kernel)
            smp = SMPMachine(kernel, quantum=8)
            delta = smp.run(self._shards(kernel, domain, segment, 64))
            runs.append(delta.as_dict())
        assert runs[0] == runs[1]

    def test_more_shards_than_cpus_rejected(self):
        kernel = smp_kernel()
        domain, segment = shared_setup(kernel)
        smp = SMPMachine(kernel)
        with pytest.raises(ValueError):
            smp.run(self._shards(kernel, domain, segment, 8) + [[]])


class TestTranslationNeverIntercepted:
    """The structural contract pinned by the bus: an armed injector may
    drop *protection* shootdowns, never *translation* shootdowns."""

    def drop_everything(self) -> FaultInjector:
        return FaultInjector(
            FaultPlan(events=(FaultEvent("shootdown", "drop", at=0, arg=9999),))
        )

    def test_unmap_invalidates_remote_translations_despite_the_injector(self):
        kernel = smp_kernel("plb")
        domain, segment = shared_setup(kernel)
        smp = SMPMachine(kernel)
        vaddr = kernel.params.vaddr(segment.base_vpn)
        for cpu in (0, 1):
            smp.touch_on(cpu, domain, vaddr)

        injector = self.drop_everything()
        injector.arm(kernel)
        kernel.set_current_cpu(0)
        kernel.unmap_page(segment.base_vpn)
        injector.disarm()

        # Both CPUs must refuse to translate the dead page; a stale hit
        # here would hand out a released frame.
        for cpu in (0, 1):
            kernel.set_current_cpu(cpu)
            with pytest.raises(PageFault):
                kernel.system.access(vaddr, AccessType.READ)

    def test_protection_drops_do_leave_remote_cpus_stale(self):
        """The contrast case: the same plan swallows a protection
        shootdown, so the remote CPU keeps granting until scrubbed."""
        from repro.faults.scrub import Scrubber

        kernel = smp_kernel("plb")
        domain, segment = shared_setup(kernel)
        smp = SMPMachine(kernel)
        vaddr = kernel.params.vaddr(segment.base_vpn)
        for cpu in (0, 1):
            smp.touch_on(cpu, domain, vaddr, AccessType.WRITE)

        injector = self.drop_everything()
        injector.arm(kernel)
        kernel.set_current_cpu(0)
        kernel.set_page_rights(domain, segment.base_vpn, Rights.NONE)
        # CPU 1 never saw the revocation: its PLB still grants write.
        assert not smp.touch_on(1, domain, vaddr, AccessType.WRITE).faulted
        injector.disarm()
        assert Scrubber(kernel).scrub() >= 1
        with pytest.raises(SegmentationViolation):
            smp.touch_on(1, domain, vaddr, AccessType.WRITE)


class TestBatchedRangeShootdowns:
    """A K-page verb coalesces to ONE bus message per remote CPU."""

    def warm(self, kernel, domain, segment):
        smp = SMPMachine(kernel)
        for cpu in range(len(kernel.cpus)):
            for vpn in segment.vpns():
                smp.touch_on(cpu, domain, kernel.params.vaddr(vpn),
                             AccessType.WRITE)
        kernel.set_current_cpu(0)
        return smp

    @pytest.mark.parametrize("model", MODELS)
    def test_one_message_per_remote_cpu_not_per_page(self, model):
        kernel = Kernel(model, n_frames=64, n_cpus=4)
        domain, segment = shared_setup(kernel)
        self.warm(kernel, domain, segment)
        before = kernel.stats.snapshot()
        kernel.set_pages_rights_all_domains(list(segment.vpns()), Rights.READ)
        delta = kernel.stats.delta(before)
        # 4 pages, 4 CPUs, 1 sharing domain: 3 messages, not 12.
        assert delta["smp.shootdown.msgs"] == 3
        assert delta["smp.shootdown.batches"] == 3
        assert delta["smp.shootdown.batched_entries"] == 12

    def test_no_batch_degenerates_to_the_per_page_loop(self):
        kernel = Kernel("plb", n_frames=64, n_cpus=4)
        domain, segment = shared_setup(kernel)
        self.warm(kernel, domain, segment)
        kernel.bus.batch = False
        before = kernel.stats.snapshot()
        kernel.set_pages_rights_all_domains(list(segment.vpns()), Rights.READ)
        delta = kernel.stats.delta(before)
        assert delta["smp.shootdown.msgs"] == 12
        assert delta["smp.shootdown.batches"] == 0
        assert delta["smp.shootdown.batched_entries"] == 0

    @pytest.mark.parametrize("model", MODELS)
    def test_batched_revocation_is_enforced_on_remote_cpus(self, model):
        kernel = Kernel(model, n_frames=64, n_cpus=3)
        domain, segment = shared_setup(kernel)
        smp = self.warm(kernel, domain, segment)
        kernel.set_pages_rights_all_domains(list(segment.vpns()), Rights.READ)
        for cpu in range(3):
            for vpn in segment.vpns():
                vaddr = kernel.params.vaddr(vpn)
                assert not smp.touch_on(cpu, domain, vaddr).faulted
                with pytest.raises(SegmentationViolation):
                    smp.touch_on(cpu, domain, vaddr, AccessType.WRITE)

    def test_single_cpu_emits_no_smp_counters(self):
        kernel = Kernel("plb", n_frames=64, n_cpus=1)
        domain, segment = shared_setup(kernel)
        machine = Machine(kernel)
        for vpn in segment.vpns():
            machine.write(domain, kernel.params.vaddr(vpn))
        before = kernel.stats.snapshot()
        kernel.set_pages_rights_all_domains(list(segment.vpns()), Rights.READ)
        kernel.unmap_pages(list(segment.vpns())[:2])
        delta = kernel.stats.delta(before)
        assert not [name for name in delta.as_dict() if name.startswith("smp.")]

    def test_predicate_filters_batch_delivery_per_cpu(self):
        """A predicate-gated range shootdown reaches only matching CPUs."""
        kernel = Kernel("plb", n_frames=64, n_cpus=3)
        domain, segment = shared_setup(kernel)
        self.warm(kernel, domain, segment)
        fired: list[int] = []
        pages = tuple(segment.vpns())
        kernel.bus.shootdown_range(
            "probe", pages,
            lambda vpns: lambda system: fired.append(len(vpns)) or 0,
            predicate=lambda ctx: ctx.cpu_id == 1,
            include_local=False,
        )
        # Exactly one delivery (CPU 1), carrying the whole page set.
        assert fired == [len(pages)]
        assert kernel.stats["smp.shootdown.msgs"] == 1
        assert kernel.stats["smp.shootdown.batches"] == 1

    def test_unmap_pages_batches_on_the_translation_channel(self):
        kernel = Kernel("plb", n_frames=64, n_cpus=4)
        domain, segment = shared_setup(kernel)
        self.warm(kernel, domain, segment)
        before = kernel.stats.snapshot()
        kernel.unmap_pages(list(segment.vpns()))
        delta = kernel.stats.delta(before)
        assert delta["smp.tlb_shootdown.msgs"] == 3
        assert delta["smp.tlb_shootdown.batches"] == 3
        assert delta["smp.shootdown.batches"] == 0


class TestInjectorBatchContract:
    """The injector intercepts a range shootdown as ONE atomic unit."""

    def staged(self, n_cpus: int = 2):
        kernel = smp_kernel("plb", n_cpus=n_cpus)
        domain, segment = shared_setup(kernel)
        smp = SMPMachine(kernel)
        for cpu in range(n_cpus):
            for vpn in segment.vpns():
                smp.touch_on(cpu, domain, kernel.params.vaddr(vpn),
                             AccessType.WRITE)
        kernel.set_current_cpu(0)
        return kernel, domain, segment, smp

    def writable_pages(self, smp, kernel, domain, segment, cpu) -> int:
        count = 0
        for vpn in segment.vpns():
            try:
                smp.touch_on(cpu, domain, kernel.params.vaddr(vpn),
                             AccessType.WRITE)
                count += 1
            except SegmentationViolation:
                pass
        return count

    def test_delayed_batch_replays_atomically(self):
        """A held range shootdown fires once, applying every page."""
        kernel, domain, segment, smp = self.staged()
        # Message stream: index 0 = local delivery, 1 = CPU 1's batch.
        injector = FaultInjector(FaultPlan(
            events=(FaultEvent("shootdown", "delay", at=1, arg=4),)
        ))
        injector.arm(kernel)
        injector.tick(0)
        kernel.set_current_cpu(0)
        kernel.set_pages_rights_all_domains(list(segment.vpns()), Rights.READ)
        # The whole batch is in flight: CPU 1 still grants write on
        # EVERY page (no partially-applied batch), CPU 0 on none.
        assert self.writable_pages(smp, kernel, domain, segment, 1) == 4
        assert self.writable_pages(smp, kernel, domain, segment, 0) == 0
        injector.tick(10)  # past fire_at: the batch replays, once
        assert self.writable_pages(smp, kernel, domain, segment, 1) == 0
        injector.disarm()

    def test_dropped_batch_repaired_by_one_scrub_pass(self):
        from repro.faults.scrub import Scrubber

        kernel, domain, segment, smp = self.staged()
        injector = FaultInjector(FaultPlan(
            events=(FaultEvent("shootdown", "drop", at=1, arg=1),)
        ))
        injector.arm(kernel)
        kernel.set_current_cpu(0)
        kernel.set_pages_rights_all_domains(list(segment.vpns()), Rights.READ)
        assert self.writable_pages(smp, kernel, domain, segment, 1) == 4
        injector.disarm()
        # One scrubber pass audits every CPU against authority and
        # repairs the whole lost batch.
        assert Scrubber(kernel).scrub() >= 1
        assert self.writable_pages(smp, kernel, domain, segment, 1) == 0

    def test_delayed_batch_fires_on_disarm_flush(self):
        kernel, domain, segment, smp = self.staged()
        injector = FaultInjector(FaultPlan(
            events=(FaultEvent("shootdown", "delay", at=1, arg=50),)
        ))
        injector.arm(kernel)
        kernel.set_current_cpu(0)
        kernel.set_pages_rights_all_domains(list(segment.vpns()), Rights.READ)
        assert self.writable_pages(smp, kernel, domain, segment, 1) == 4
        injector.disarm()  # flush_delayed replays the held batch
        assert self.writable_pages(smp, kernel, domain, segment, 1) == 0
