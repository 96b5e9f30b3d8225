"""Mutants the kernel oracle must kill.

Each entry of :data:`MUTANTS` replaces one function with a deliberately
broken copy (a monkeypatch, never a file edit) and names the
``run_check`` runs that must catch it: at least one of them diverges
with the mutant in place, and that same run is clean without it.  A
mutant every run passes is a hole in the oracle.  A kill's minimized
dump must then work as the bug's regression test under ``repro
replay``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import pytest

from repro.check import run_check
from repro.cli import main
from repro.core.mmu import ProtectionFault
from repro.core.plb import PLBKey, ProtectionLookasideBuffer
from repro.core.rights import AccessType
from repro.os.kernel import PLBOps
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


def _first_hit_stop_invalidate(self, pd_id, vaddr):
    """The historical ``ProtectionLookasideBuffer.invalidate``: it stops
    at the first level that hits, leaving a stale entry at another."""
    for level in self.levels:
        key = PLBKey(pd_id, self.unit_for(vaddr, level), level)
        if self._store.invalidate(key):
            self.stats.inc(f"{self.name}.invalidate")
            return 1
    return 0


def _detach_without_purge(self, domain, segment):
    """``PLBOps.detach`` without the shootdown that purges the domain's
    cached entries for the segment."""
    del domain.attachments[segment.seg_id]
    domain.clear_overrides_in(segment.base_vpn, segment.end_vpn)
    self.kernel._verb_step("detached")


def _set_segment_rights_without_sweep(self, domain, segment, rights):
    """``PLBOps.set_segment_rights`` without the sweep of the domain's
    cached entries."""
    domain.attachments[segment.seg_id] = rights
    domain.clear_overrides_in(segment.base_vpn, segment.end_vpn)


def _set_pages_rights_without_plb_update(self, domain, vpns, rights, verb):
    """``PLBOps.set_pages_rights`` that records the overrides but
    updates no PLB entry."""
    for vpn in vpns:
        domain.page_overrides[vpn] = rights


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

    def inject(self, patch) -> None:
        """Put the broken copy in place through ``patch`` (a monkeypatch)."""
        patch.setattr(self.owner, self.attr, self.replacement)


MUTANTS = (
    Mutant(
        "touch-skips-retry-after-protection-fault",
        Machine, "touch", _touch_without_retry_after_protection_fault,
        "paging", (0, 1, 2, 3, 4),
    ),
    Mutant(
        "plb-invalidate-stops-at-first-hit",
        ProtectionLookasideBuffer, "invalidate", _first_hit_stop_invalidate,
        "fuzz", (0, 1, 2, 3, 4),
    ),
    Mutant(
        "plb-detach-skips-purge",
        PLBOps, "detach", _detach_without_purge,
        "fuzz", (0, 1, 2, 3, 4),
    ),
    Mutant(
        "plb-set-segment-rights-skips-sweep",
        PLBOps, "set_segment_rights", _set_segment_rights_without_sweep,
        "fuzz", (0, 3),
    ),
    Mutant(
        "plb-set-pages-rights-updates-no-entry",
        PLBOps, "set_pages_rights", _set_pages_rights_without_plb_update,
        "fuzz", (0, 1, 2, 3, 4),
    ),
)


def mutant_named(name: str) -> Mutant:
    """The :data:`MUTANTS` entry called ``name``, for suites that
    re-inject one."""
    return next(mutant for mutant in MUTANTS if mutant.name == name)


def _check(mutant: Mutant, seed: int):
    return run_check(
        mutant.scenario, seed, n_cpus=mutant.n_cpus, plan=mutant.plan, minimize=False
    )


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.name)
def test_kill_dump_replays_until_the_fix(mutant, monkeypatch, tmp_path, capsys):
    """A kill's minimized dump is that bug's regression test: ``repro
    replay`` diverges with the same text while the mutant is in place,
    and replays clean once it is gone."""
    seed = mutant.seeds[0]
    dump = tmp_path / "dump.json"
    with monkeypatch.context() as patch:
        mutant.inject(patch)
        result = run_check(
            mutant.scenario, seed, n_cpus=mutant.n_cpus, plan=mutant.plan
        )
        dump.write_text(json.dumps(result.dump()))
        assert main(["replay", str(dump)]) == 1
        assert capsys.readouterr().out.endswith(
            ") — " + result.divergence.describe() + "\n"
        )
    assert main(["replay", str(dump)]) == 0
    assert ": OK (" in capsys.readouterr().out


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.name)
def test_oracle_kills_mutant(mutant, monkeypatch):
    with monkeypatch.context() as patch:
        mutant.inject(patch)
        killers = [seed for seed in mutant.seeds if not _check(mutant, seed).ok]
    assert killers, (
        f"{mutant.name} survived {mutant.scenario} seeds {mutant.seeds}"
    )
    seed = killers[0]
    assert _check(mutant, seed).ok, f"{mutant.scenario} seed {seed} fails unmutated"
