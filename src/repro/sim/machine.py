"""The trace-driven machine: references, faults, retries.

:class:`Machine` glues a kernel's memory system to a reference stream.
Each reference runs through the system's access path; protection and page
faults trap to the kernel (workload-installed handlers fix up rights,
pagers bring pages in) and the faulting access retries, exactly the
fault-driven protocols that the paper's application classes (GC, DSM,
transactions, checkpointing) are built on.

Every reference walks the model's full access path
(``MemorySystem.access_fast``); ARCHITECTURE.md §9 says why nothing is
memoized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.core.mmu import PageFault, ProtectionFault
from repro.core.rights import AccessType
from repro.os.domain import ProtectionDomain
from repro.os.kernel import Kernel, SegmentationViolation
from repro.sim.stats import Stats
from repro.sim.trace import Ref, Switch, TraceOp


class FaultLoop(SegmentationViolation):
    """An access kept faulting after the kernel handled its faults."""


@dataclass(frozen=True)
class TouchResult:
    """The faults one reference took before it completed."""

    protection_faults: int = 0
    page_faults: int = 0

    @property
    def faulted(self) -> bool:
        return bool(self.protection_faults or self.page_faults)


#: The outcome of every reference that completes without a fault: one
#: shared, frozen object, so the common case builds none.
NO_FAULTS = TouchResult()


class Machine:
    """Runs references (and whole traces) against one kernel.

    Args:
        kernel: The kernel (and memory system) to drive.
        cpu: The :class:`~repro.os.smp.CpuContext` this machine drives
            (defaults to the kernel's current CPU — CPU 0 on a
            single-CPU kernel).  A machine is pinned: every touch runs
            on its CPU's hardware.  Every CPU charges the kernel's one
            ``stats`` store, so :meth:`run` returns the kernel's delta.
    """

    #: A reference that faults more than this many times is wedged: the
    #: handlers are not making progress.
    MAX_FAULTS = 16

    def __init__(self, kernel: Kernel, *, cpu=None) -> None:
        self.kernel = kernel
        #: The CPU this machine is pinned to (see class docstring).
        self.cpu = cpu if cpu is not None else kernel.cpus[kernel.current_cpu]
        self._cpu_id = self.cpu.cpu_id

    # ------------------------------------------------------------------ #
    # Single references

    def touch(
        self,
        domain: ProtectionDomain,
        vaddr: int,
        access: AccessType = AccessType.READ,
    ) -> TouchResult:
        """One reference by ``domain``, with full fault handling.

        Switches to the domain if it is not current, then retries the
        access as the kernel resolves faults.  Raises
        :class:`SegmentationViolation` (via the kernel) for unhandled
        faults and :class:`FaultLoop` if handlers stop making progress.
        """
        kernel = self.kernel
        if kernel.current_cpu != self._cpu_id:
            kernel.set_current_cpu(self._cpu_id)
        system = kernel.system
        if system.current_domain != domain.pd_id:
            kernel.switch_to(domain)
        access_fast = system.access_fast
        protection_faults = 0
        page_faults = 0
        for _ in range(self.MAX_FAULTS):
            fault = access_fast(vaddr, access)
            if fault is None:
                if protection_faults or page_faults:
                    return TouchResult(protection_faults, page_faults)
                return NO_FAULTS
            if isinstance(fault, ProtectionFault):
                protection_faults += 1
                kernel.handle_protection_fault(fault)
            elif isinstance(fault, PageFault):
                page_faults += 1
                kernel.handle_page_fault(fault)
            else:  # pragma: no cover - protocol violation
                raise TypeError(f"access_fast returned {fault!r}")
        raise FaultLoop(
            f"access at {vaddr:#x} by {domain.name} still faulting after "
            f"{self.MAX_FAULTS} handled faults"
        )

    def read(self, domain: ProtectionDomain, vaddr: int) -> TouchResult:
        return self.touch(domain, vaddr, AccessType.READ)

    def write(self, domain: ProtectionDomain, vaddr: int) -> TouchResult:
        return self.touch(domain, vaddr, AccessType.WRITE)

    # ------------------------------------------------------------------ #
    # Traces

    def run(self, trace: Iterable[TraceOp]) -> Stats:
        """Run a list of :class:`Ref`/:class:`Switch` records on this
        machine's CPU; returns the kernel's counter delta."""
        kernel = self.kernel
        before = kernel.stats.snapshot()
        for op in trace:
            if isinstance(op, Ref):
                self.touch(kernel.domains[op.pd_id], op.vaddr, op.access)
            elif isinstance(op, Switch):
                if kernel.current_cpu != self._cpu_id:
                    kernel.set_current_cpu(self._cpu_id)
                kernel.switch_to(kernel.domains[op.pd_id])
            else:
                raise TypeError(f"not a trace op: {op!r}")
        return kernel.stats.delta(before)


class SMPMachine:
    """One pinned :class:`Machine` per CPU of an SMP kernel.

    Every machine shares the kernel (and its authority and stats
    store); :meth:`touch_on` runs one reference on a chosen CPU's
    hardware, so a caller places each reference explicitly and a run is
    deterministic.
    """

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel
        #: One pinned machine per CPU, in CPU order.
        self.machines = [Machine(kernel, cpu=ctx) for ctx in kernel.cpus]

    def touch_on(
        self,
        cpu_id: int,
        domain: ProtectionDomain,
        vaddr: int,
        access: AccessType = AccessType.READ,
    ) -> TouchResult:
        """One reference by ``domain`` on ``cpu_id``'s hardware."""
        return self.machines[cpu_id].touch(domain, vaddr, access)
