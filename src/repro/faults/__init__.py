"""Deterministic fault injection and recovery.

The kernel oracle (:mod:`repro.check.harness`) replays its scenarios
under these fault plans and checks that recovery converges to gold.

Public surface:

* :mod:`repro.faults.errors` — the typed fault hierarchy (re-exported
  here; importable from anywhere, including the hardware layer).
* :mod:`repro.faults.plan` — serializable seeded fault plans and the
  :class:`FaultInjector` that arms them on a kernel.
* :mod:`repro.faults.scrub` — the audit walk over every cached
  protection entry (one rule per model, shared with
  :func:`repro.check.invariants.check_invariants`) and the periodic
  scrubber that repairs what it finds.
* :mod:`repro.faults.journal` — intent journal for crash-consistent
  kernel verbs.
* :mod:`repro.faults.chaos` — the crash-recover sweep.

Only the errors and plan layers are re-exported at package level; the
heavier modules (scrub/journal/chaos import the kernel) are imported by
their submodule path to keep ``repro.os.kernel -> repro.faults.errors``
free of cycles.
"""

from repro.faults.errors import (
    AddressSpaceError,
    ClusterConfigError,
    ClusterError,
    ClusterTimeoutError,
    ClusterUnavailableError,
    CorruptPageError,
    DiskError,
    DSMProtocolError,
    HardwareFault,
    MachineCheck,
    MissingPageError,
    NodeCrashedError,
    TransientDiskError,
)
from repro.faults.plan import (
    PRESET_SUMMARIES,
    PRESETS,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    preset_catalog,
)

__all__ = [
    "HardwareFault",
    "DiskError",
    "TransientDiskError",
    "CorruptPageError",
    "MissingPageError",
    "MachineCheck",
    "AddressSpaceError",
    "ClusterError",
    "ClusterConfigError",
    "ClusterTimeoutError",
    "ClusterUnavailableError",
    "DSMProtocolError",
    "NodeCrashedError",
    "FaultEvent",
    "FaultPlan",
    "FaultInjector",
    "PRESETS",
    "PRESET_SUMMARIES",
    "preset_catalog",
]
