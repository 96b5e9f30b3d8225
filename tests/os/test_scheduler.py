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

