"""Mutants the kernel oracle must kill.

Each entry of :data:`MUTANTS` replaces one function with a deliberately
broken copy (a monkeypatch, never a file edit) and names the
``run_check`` runs that must catch it: at least one of them diverges
with the mutant in place, and that same run is clean without it.  A
mutant every run passes is a hole in the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import pytest

from repro.check import run_check
from repro.core.mmu import ProtectionFault
from repro.core.rights import AccessType
from repro.sim.machine import FaultLoop, Machine, TouchResult


def _touch_without_retry_after_protection_fault(
    self, domain, vaddr, access=AccessType.READ
):
    """``Machine.touch``, except that a handled protection fault ends
    the reference instead of re-running the access."""
    kernel = self.kernel
    if kernel.current_cpu != self._cpu_id:
        kernel.set_current_cpu(self._cpu_id)
    system = kernel.system
    if system.current_domain != domain.pd_id:
        kernel.switch_to(domain)
    page_faults = 0
    for _ in range(self.MAX_FAULTS):
        fault = system.access_fast(vaddr, access)
        if fault is None:
            return TouchResult(0, page_faults)
        if isinstance(fault, ProtectionFault):
            kernel.handle_protection_fault(fault)
            return TouchResult(1, page_faults)
        page_faults += 1
        kernel.handle_page_fault(fault)
    raise FaultLoop(f"access at {vaddr:#x} still faulting")


@dataclass(frozen=True)
class Mutant:
    """One broken function and the oracle runs that must catch it."""

    name: str
    owner: type
    attr: str
    replacement: Callable
    scenario: str
    seeds: tuple[int, ...]
    n_cpus: int = 1
    plan: str | None = None


MUTANTS = (
    Mutant(
        "touch-skips-retry-after-protection-fault",
        Machine, "touch", _touch_without_retry_after_protection_fault,
        "paging", (0, 1, 2, 3, 4),
    ),
)


def _check(mutant: Mutant, seed: int):
    return run_check(
        mutant.scenario, seed, n_cpus=mutant.n_cpus, plan=mutant.plan, minimize=False
    )


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.name)
def test_oracle_kills_mutant(mutant, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(mutant.owner, mutant.attr, mutant.replacement)
        killers = [seed for seed in mutant.seeds if not _check(mutant, seed).ok]
    assert killers, (
        f"{mutant.name} survived {mutant.scenario} seeds {mutant.seeds}"
    )
    seed = killers[0]
    assert _check(mutant, seed).ok, f"{mutant.scenario} seed {seed} fails unmutated"
