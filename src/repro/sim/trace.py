"""Reference traces: the records :meth:`Machine.run <repro.sim.machine.Machine.run>` runs.

A trace is a sequence of memory references and domain switches.
Workload generators build them programmatically
(:class:`~repro.workloads.tracegen.TraceGenerator` yields :class:`Ref`),
and the same trace drives all three systems, which is what makes the
comparisons fair.  The replayable stream format is the kernel oracle's
op vocabulary (:mod:`repro.check.ops`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.core.rights import AccessType


@dataclass(frozen=True)
class Ref:
    """One memory reference by a protection domain."""

    pd_id: int
    vaddr: int
    access: AccessType = AccessType.READ


@dataclass(frozen=True)
class Switch:
    """An explicit protection-domain switch."""

    pd_id: int


TraceOp = Union[Ref, Switch]
