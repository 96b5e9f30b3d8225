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
from typing import Iterable, Sequence

from repro.core.mmu import AccessResult, PageFault, ProtectionFault
from repro.core.rights import AccessType
from repro.os.domain import ProtectionDomain
from repro.os.kernel import Kernel, SegmentationViolation
from repro.sim.stats import Stats
from repro.sim.trace import Ref, Switch, TraceOp


class FaultLoop(SegmentationViolation):
    """An access kept faulting after the kernel handled its faults."""


@dataclass
class TouchResult:
    """Outcome of one reference, including the faults it took."""

    result: AccessResult
    protection_faults: int = 0
    page_faults: int = 0

    @property
    def faulted(self) -> bool:
        return bool(self.protection_faults or self.page_faults)


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
        #: When set (see :meth:`record_trace`), every touch (and every
        #: explicit :class:`Switch` replayed by :meth:`run`) is appended
        #: here so a workload's reference stream can be saved and
        #: replayed on another model.
        self._trace_log: list[TraceOp] | None = None

    def record_trace(self, sink: list[TraceOp] | None = None) -> list[TraceOp]:
        """Start recording every reference; returns the sink list."""
        self._trace_log = sink if sink is not None else []
        return self._trace_log

    def stop_recording(self) -> list[TraceOp] | None:
        """Stop recording; returns the captured trace."""
        log, self._trace_log = self._trace_log, None
        return log

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
        if self._trace_log is not None:
            self._trace_log.append(Ref(domain.pd_id, vaddr, access))
        system = kernel.system
        if system.current_domain != domain.pd_id:
            kernel.switch_to(domain)
        access_fast = system.access_fast
        protection_faults = 0
        page_faults = 0
        for _ in range(self.MAX_FAULTS):
            result = access_fast(vaddr, access)
            if result.__class__ is AccessResult:
                return TouchResult(result, protection_faults, page_faults)
            if isinstance(result, ProtectionFault):
                protection_faults += 1
                kernel.handle_protection_fault(result)
            elif isinstance(result, PageFault):
                page_faults += 1
                kernel.handle_page_fault(result)
            else:  # pragma: no cover - protocol violation
                raise TypeError(f"access_fast returned {result!r}")
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

    def step(self, op: TraceOp) -> None:
        """Replay one trace op on this machine's CPU (SMP interleaving)."""
        kernel = self.kernel
        if kernel.current_cpu != self._cpu_id:
            kernel.set_current_cpu(self._cpu_id)
        if isinstance(op, Ref):
            self.touch(kernel.domains[op.pd_id], op.vaddr, op.access)
        elif isinstance(op, Switch):
            if self._trace_log is not None:
                # An explicit switch is part of the reference stream:
                # dropping it would let a re-recorded trace diverge in
                # switch costs when replayed on another model.
                self._trace_log.append(op)
            kernel.switch_to(kernel.domains[op.pd_id])
        else:
            raise TypeError(f"not a trace op: {op!r}")

    def run(self, trace: Iterable[TraceOp]) -> Stats:
        """Replay a trace; returns the kernel's counter delta."""
        stats = self.kernel.stats
        before = stats.snapshot()
        for op in trace:
            self.step(op)
        return stats.delta(before)


class SMPMachine:
    """Interleaves per-CPU reference streams over one SMP kernel.

    One :class:`Machine` per :class:`~repro.os.smp.CpuContext`, all
    sharing the kernel (and its authority and stats store).
    :meth:`run` round-robins the CPUs in fixed quanta — CPU 0 runs
    ``quantum`` ops, then CPU 1, ... — so a run is *deterministic*: the
    same shards and quantum produce the same interleaving, the same
    shootdown traffic and the same counters on every run.
    """

    def __init__(self, kernel: Kernel, *, quantum: int = 32) -> None:
        if quantum < 1:
            raise ValueError(f"quantum must be >= 1, got {quantum}")
        self.kernel = kernel
        self.quantum = quantum
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

    def run(
        self, shards: Sequence[Iterable[TraceOp]], *, quantum: int | None = None
    ) -> Stats:
        """Interleave one trace shard per CPU; returns the kernel's delta.

        ``shards[k]`` replays on CPU ``k`` (at most one shard per CPU).
        Round-robin with a fixed quantum: deterministic interleaving,
        deterministic counters.  Every CPU charges ``kernel.stats``, so
        the delta holds the whole run's work on every CPU.
        """
        kernel = self.kernel
        if len(shards) > kernel.n_cpus:
            raise ValueError(
                f"{len(shards)} shards for {kernel.n_cpus} CPUs; "
                "one shard per CPU at most"
            )
        quantum = self.quantum if quantum is None else quantum
        if quantum < 1:
            raise ValueError(f"quantum must be >= 1, got {quantum}")
        before = kernel.stats.snapshot()
        streams = [iter(shard) for shard in shards]
        live = list(range(len(streams)))
        while live:
            still_live = []
            for idx in live:
                machine = self.machines[idx]
                stream = streams[idx]
                exhausted = False
                for _ in range(quantum):
                    op = next(stream, None)
                    if op is None:
                        exhausted = True
                        break
                    machine.step(op)
                if not exhausted:
                    still_live.append(idx)
            live = still_live
        return kernel.stats.delta(before)

    def run_affine(
        self,
        tasks: Sequence[tuple[ProtectionDomain, Iterable[TraceOp]]],
        *,
        scheduler,
        quantum: int | None = None,
    ) -> Stats:
        """Interleave per-domain traces placed by an affinity scheduler.

        Where :meth:`run` pins shard *k* to CPU *k*, here the scheduler
        owns placement: each quantum, every CPU asks its
        :class:`~repro.os.scheduler.AffinityScheduler` which of its
        *placed* domains runs next (charging the model's switch cost),
        then replays one quantum of that domain's trace on that CPU's
        hardware.  Several domains may share a CPU; a migration between
        quanta moves a domain's remaining trace to its new CPU.  The
        interleaving is deterministic: CPUs round-robin in id order,
        each rotating its own queue.
        """
        kernel = self.kernel
        quantum = self.quantum if quantum is None else quantum
        if quantum < 1:
            raise ValueError(f"quantum must be >= 1, got {quantum}")
        before = kernel.stats.snapshot()
        streams = {}
        for domain, trace in tasks:
            if domain.pd_id in streams:
                raise ValueError(f"duplicate task for {domain.name}")
            streams[domain.pd_id] = iter(trace)
        remaining = set(streams)
        while remaining:
            progressed = False
            for cpu_id in range(kernel.n_cpus):
                pick = None
                for _ in range(len(scheduler.domains_on(cpu_id))):
                    domain = scheduler.next_on(cpu_id)
                    if domain is not None and domain.pd_id in remaining:
                        pick = domain
                        break
                if pick is None:
                    continue
                machine = self.machines[cpu_id]
                stream = streams[pick.pd_id]
                for _ in range(quantum):
                    op = next(stream, None)
                    if op is None:
                        remaining.discard(pick.pd_id)
                        break
                    machine.step(op)
                progressed = True
            if not progressed:
                # Every remaining domain is placed on a CPU whose queue
                # never surfaces it (cannot happen with a well-formed
                # scheduler); bail rather than spin.
                break
        return kernel.stats.delta(before)
