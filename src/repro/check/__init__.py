"""The kernel oracle: cross-model equivalence checking, with and without faults.

Three very different memory systems (:mod:`repro.core.mmu`) must agree on
one thing: which references a protection domain may perform, and where
they land in physical memory.  This package checks that agreement against
a *gold model* — a flat, obviously-correct dictionary interpretation of
the kernel's protection and translation state — by replaying one seeded
kernel-verb/reference stream through all configured systems in lockstep,
through the pager, on any number of CPUs, with or without a fault plan.

* :mod:`repro.check.gold` — the gold model and the per-model equivalence
  contract (the models differ *by design* in fault ordering and in the
  page-group model's global-rights semantics; the contract encodes it).
* :mod:`repro.check.ops` — the replayable operation vocabulary and the
  seeded scenario generator.
* :mod:`repro.check.harness` — the lockstep harness, divergence
  minimizer and repro-dump machinery.
* :mod:`repro.check.invariants` — structural coherence checks over the
  hardware caches, callable mid-run against any live kernel.  The
  protection entries are judged by the scrubber's audit walk
  (:func:`repro.faults.scrub.audit`), so the report and the repair
  share one rule per model.

See ARCHITECTURE.md §7 and ``python -m repro check --help``.
"""

from repro.check.harness import CheckReport, CheckRunResult, Divergence, LockstepHarness, run_check
from repro.check.gold import Expectation, GoldModel
from repro.check.invariants import check_invariants
from repro.check.ops import SCENARIOS, Op, ScenarioSpec, generate_ops, op_from_dict, ops_from_dicts

__all__ = [
    "CheckReport",
    "CheckRunResult",
    "Divergence",
    "Expectation",
    "GoldModel",
    "LockstepHarness",
    "Op",
    "SCENARIOS",
    "ScenarioSpec",
    "check_invariants",
    "generate_ops",
    "op_from_dict",
    "ops_from_dicts",
    "run_check",
]
