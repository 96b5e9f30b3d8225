"""Tests for the round-robin domain scheduler."""

from __future__ import annotations

import pytest

from repro.os.kernel import Kernel
from repro.os.scheduler import RoundRobinScheduler


def make_sched(model="plb", n=3):
    kernel = Kernel(model)
    domains = [kernel.create_domain(f"d{i}") for i in range(n)]
    return kernel, domains, RoundRobinScheduler(kernel, domains)


class TestRoundRobin:
    def test_rotation_order(self):
        kernel, domains, sched = make_sched()
        seen = [sched.next() for _ in range(6)]
        assert seen == domains + domains

    def test_next_switches_hardware_domain(self):
        kernel, domains, sched = make_sched()
        sched.next()
        assert kernel.system.current_domain == domains[0].pd_id

    def test_run_to_specific_domain(self):
        kernel, domains, sched = make_sched()
        sched.run_to(domains[2])
        assert kernel.system.current_domain == domains[2].pd_id
        assert sched.current is domains[2]
        # Rotation continues from there.
        assert sched.next() is domains[0]

    def test_run_to_unscheduled_domain_rejected(self):
        kernel, domains, sched = make_sched()
        stranger = kernel.create_domain("stranger")
        with pytest.raises(ValueError):
            sched.run_to(stranger)

    def test_requires_domains(self):
        kernel = Kernel("plb")
        with pytest.raises(ValueError):
            RoundRobinScheduler(kernel, [])

    def test_switch_costs_counted(self):
        kernel, domains, sched = make_sched()
        before = kernel.stats.snapshot()
        for _ in range(4):
            sched.next()
        delta = kernel.stats.delta(before)
        assert delta["domain_switch"] == 4
        assert delta["pdid.write"] == 4


class TestRunToContract:
    def test_error_message_names_the_domain(self):
        kernel, domains, sched = make_sched()
        stranger = kernel.create_domain("stranger")
        with pytest.raises(ValueError, match="stranger is not scheduled here"):
            sched.run_to(stranger)

    def test_lookup_is_by_identity_not_just_pd_id(self):
        """A foreign domain object must not resolve via a stale map."""
        kernel, domains, sched = make_sched()
        impostor = type(domains[0]).__new__(type(domains[0]))
        impostor.__dict__.update(domains[0].__dict__)
        impostor.name = "impostor"
        with pytest.raises(ValueError, match="impostor is not scheduled here"):
            sched.run_to(impostor)

    def test_run_to_scales_without_scanning(self):
        """The O(1) map answers directly — same result at any position."""
        kernel = Kernel("plb")
        domains = [kernel.create_domain(f"d{i}") for i in range(64)]
        sched = RoundRobinScheduler(kernel, domains)
        sched.run_to(domains[-1])
        assert sched.current is domains[-1]
        assert kernel.system.current_domain == domains[-1].pd_id


class TestAffinityScheduler:
    def make_affine(self, model="plb", n_domains=4, n_cpus=2, placement=None):
        from repro.os.scheduler import AffinityScheduler

        kernel = Kernel(model, n_frames=64, n_cpus=n_cpus)
        domains = [kernel.create_domain(f"d{i}") for i in range(n_domains)]
        sched = AffinityScheduler(kernel, domains, placement=placement)
        return kernel, domains, sched

    def test_round_robin_initial_placement(self):
        kernel, domains, sched = self.make_affine()
        assert [sched.cpu_for(d) for d in domains] == [0, 1, 0, 1]
        assert sched.domains_on(0) == [domains[0], domains[2]]

    def test_placement_override(self):
        kernel, domains, sched = self.make_affine(
            placement={1: 0}  # pd_id 1 is domains[0] (pd 0 is the kernel's)
        )
        cpus = {sched.cpu_for(d) for d in domains}
        assert cpus <= {0, 1}

    def test_next_on_rotates_only_that_cpus_queue(self):
        kernel, domains, sched = self.make_affine()
        seen = [sched.next_on(0) for _ in range(4)]
        assert seen == [domains[0], domains[2], domains[0], domains[2]]
        assert kernel.current_cpu == 0

    def test_run_to_switches_on_the_home_cpu(self):
        kernel, domains, sched = self.make_affine()
        sched.run_to(domains[1])
        assert kernel.current_cpu == 1
        assert kernel.system.current_domain == domains[1].pd_id

    def test_unplaced_domain_rejected_with_contract_message(self):
        kernel, domains, sched = self.make_affine()
        stranger = kernel.create_domain("stranger")
        with pytest.raises(ValueError, match="stranger is not scheduled here"):
            sched.cpu_for(stranger)

    def test_migrate_same_cpu_is_free(self):
        kernel, domains, sched = self.make_affine()
        assert sched.migrate(domains[0], 0) == 0
        assert kernel.stats["sched.migrations"] == 0

    @pytest.mark.parametrize("model", ["plb", "pagegroup", "conventional"])
    def test_migrate_charges_the_models_refill_cost(self, model):
        from repro.core.rights import AccessType, Rights
        from repro.sim.machine import SMPMachine

        kernel, domains, sched = self.make_affine(model=model)
        segment = kernel.create_segment("data", 4)
        kernel.attach(domains[0], segment, Rights.RW)
        smp = SMPMachine(kernel)
        for vpn in segment.vpns():
            smp.touch_on(0, domains[0], kernel.params.vaddr(vpn),
                         AccessType.WRITE)
        refill = sched.migrate(domains[0], 1)
        assert sched.cpu_for(domains[0]) == 1
        assert kernel.stats["sched.migrations"] == 1
        assert kernel.stats["sched.migration.refill_entries"] == refill
        # The old CPU warmed 4 pages of protection state for the
        # domain; moving it strands (and therefore charges) entries.
        if model in ("plb", "conventional"):
            assert refill >= 4
        assert domains[0] in sched.domains_on(1)
        assert domains[0] not in sched.domains_on(0)

    @pytest.mark.parametrize("holder", ("cache", "registers"))
    def test_migrate_sweeps_either_group_holder(self, holder):
        """Migration sweeps the domain's groups out of the old CPU's
        holder with the Table 1 ``invalidate`` that the LRU cache and
        the register file both define, and charges one entry each."""
        from repro.core.rights import Rights
        from repro.os.scheduler import AffinityScheduler
        from repro.sim.machine import SMPMachine

        kernel = Kernel(
            "pagegroup", n_frames=64, n_cpus=2,
            system_options={"group_holder": holder},
        )
        domain = kernel.create_domain("d0")
        segment = kernel.create_segment("data", 4)
        kernel.attach(domain, segment, Rights.RW)
        sched = AffinityScheduler(kernel, [domain])
        sched.run_to(domain)
        SMPMachine(kernel).touch_on(0, domain, kernel.params.vaddr(segment.base_vpn))
        groups = kernel.cpus[0].system.groups
        assert all(group in groups for group in domain.groups)
        assert sched.migrate(domain, 1) == len(domain.groups) == 1
        assert not any(group in groups for group in domain.groups)
        assert kernel.stats["sched.migration.refill_entries"] == 1

    def test_migration_sweeps_the_old_cpus_entries(self):
        """Migration ends the domain's cached protection state on the
        CPU it leaves: the entries cached there are swept, so the next
        reference on the old CPU refills instead of hitting them."""
        from repro.core.rights import Rights
        from repro.sim.machine import SMPMachine

        kernel, domains, sched = self.make_affine()
        segment = kernel.create_segment("data", 2)
        kernel.attach(domains[0], segment, Rights.RW)
        smp = SMPMachine(kernel)
        vaddr = kernel.params.vaddr(segment.base_vpn)
        smp.touch_on(0, domains[0], vaddr)

        def plb_refills() -> int:
            before = kernel.stats.snapshot()
            smp.touch_on(0, domains[0], vaddr)
            return kernel.stats.delta(before)["plb.fill"]

        assert plb_refills() == 0
        sched.migrate(domains[0], 1)
        assert plb_refills() == 1

    def test_needs_at_least_one_domain(self):
        from repro.os.scheduler import AffinityScheduler

        kernel = Kernel("plb", n_cpus=2)
        with pytest.raises(ValueError):
            AffinityScheduler(kernel, [])


class TestRunAffine:
    def test_affine_run_is_deterministic(self):
        from repro.core.rights import AccessType, Rights
        from repro.os.scheduler import AffinityScheduler
        from repro.sim.machine import SMPMachine
        from repro.sim.trace import Ref

        runs = []
        for _ in range(2):
            kernel = Kernel("plb", n_frames=64, n_cpus=2)
            domains = [kernel.create_domain(f"d{i}") for i in range(4)]
            segment = kernel.create_segment("data", 4)
            for domain in domains:
                kernel.attach(domain, segment, Rights.RW)
            sched = AffinityScheduler(kernel, domains)
            smp = SMPMachine(kernel, quantum=4)
            tasks = [
                (
                    domain,
                    [
                        Ref(domain.pd_id,
                            kernel.params.vaddr(segment.base_vpn + (i % 4)),
                            AccessType.WRITE if i % 3 == 0 else AccessType.READ)
                        for i in range(16)
                    ],
                )
                for domain in domains
            ]
            delta = smp.run_affine(tasks, scheduler=sched)
            runs.append(delta.as_dict())
        assert runs[0] == runs[1]
        assert any(name.startswith("pdid") or "switch" in name
                   for name in runs[0])

    def test_duplicate_task_rejected(self):
        from repro.core.rights import AccessType, Rights
        from repro.os.scheduler import AffinityScheduler
        from repro.sim.machine import SMPMachine

        kernel = Kernel("plb", n_cpus=2)
        domain = kernel.create_domain("app")
        sched = AffinityScheduler(kernel, [domain])
        smp = SMPMachine(kernel)
        with pytest.raises(ValueError, match="duplicate task"):
            smp.run_affine([(domain, []), (domain, [])], scheduler=sched)
