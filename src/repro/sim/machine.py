"""The trace-driven machine: references, faults, retries.

:class:`Machine` glues a kernel's memory system to a reference stream.
Each reference runs through the system's access path; protection and page
faults trap to the kernel (workload-installed handlers fix up rights,
pagers bring pages in) and the faulting access retries, exactly the
fault-driven protocols that the paper's application classes (GC, DSM,
transactions, checkpointing) are built on.

The replay hot path (see ARCHITECTURE.md §9) is the *repeat hit*: the
same domain touching the same cache line with the same access, every
structure resident.  :meth:`Machine.touch` memoizes such hits as
:class:`~repro.core.mmu.HotRecipe` objects keyed by
``(pd_id, line, access)`` and replays them without re-walking the access
path — one dict probe, a handful of identity guards, the LRU touches and
a single batched stats merge.  The memo is guarded by the kernel's
``mutation_epoch``: any kernel entry (verb, fault, injected corruption)
bumps it and the whole memo is discarded, so the fast path can never
serve a hit across a protection or translation change.  Fast-path-on and
fast-path-off runs produce byte-identical stats; the equivalence suite
(``tests/sim/test_fastpath_equivalence.py``) pins that.

On top of the per-hit memo sits the *fused-run* engine
(:class:`~repro.core.mmu.FusedRun`): :meth:`Machine.run` scans a list
trace in chunks, and when every reference in a chunk already has a
resident recipe it compiles the chunk into one ``FusedRun`` — an
aggregated counter batch, one guard validation, the LRU end-state — and
replays it as a single step under a single epoch check.  Any non-Ref
op, unmemoized key, stale guard or epoch change drops the chunk back to
the per-op loop above (which itself falls back from recipe to full
walk), so the three paths form a strict tower with byte-identical
counters at every level.
"""

from __future__ import annotations

import multiprocessing
import os
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from operator import attrgetter, rshift
from typing import Callable, Iterable, Sequence

from repro.core.mmu import AccessResult, FusedRun, PageFault, ProtectionFault
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


def _replay_shard(payload: tuple[Callable[[], "Machine"], list[TraceOp]]) -> dict[str, int]:
    """Worker entry for :meth:`Machine.run_sharded` (module-level: picklable)."""
    factory, shard = payload
    machine = factory()
    return machine.run(shard).as_dict()


# C-level field extractors for the fused-run chunk scan: ``attrgetter``
# with a dotted path reaches ``access._value_`` (the interned string the
# memo is keyed by) without a per-op Python frame.
_GET_PD = attrgetter("pd_id")
_GET_VADDR = attrgetter("vaddr")
_GET_ACCESS = attrgetter("access._value_")
_ONLY_REFS = frozenset((Ref,))


class Machine:
    """Runs references (and whole traces) against one kernel.

    Args:
        kernel: The kernel (and memory system) to drive.
        fast_path: Enable the epoch-guarded replay memo.  Off, every
            reference walks the full access path; on, repeat hits replay
            by recipe with byte-identical stats.  Exposed so the
            equivalence suite and the throughput benchmark can compare
            both modes.
        fuse_runs: Enable fused-run replay on top of the memo (ignored
            when ``fast_path`` is off): :meth:`run` compiles chunks of
            consecutive memoized hits into :class:`FusedRun` steps.  Off,
            :meth:`run` replays per-op through the recipe path — the
            PR-4 behaviour, kept addressable so the benchmark can report
            all three rungs (full / recipe / fused) separately.
        cpu: The :class:`~repro.os.smp.CpuContext` this machine drives
            (defaults to the kernel's current CPU — CPU 0 on a
            single-CPU kernel).  A machine is pinned: every touch runs
            on its CPU's hardware and charges its CPU's stats, and the
            memo is guarded by that CPU's mutation epoch.
    """

    #: A reference that faults more than this many times is wedged: the
    #: handlers are not making progress.
    MAX_FAULTS = 16

    #: Memoized hits kept before the memo is wholesale cleared.  The cap
    #: bounds memory on huge traces; clearing (rather than evicting) keeps
    #: the hit path free of bookkeeping.
    MEMO_CAPACITY = 65536

    #: Fused-run chunk size: :meth:`run` scans list traces this many ops
    #: at a time.  Large enough to amortize the per-chunk bulk passes and
    #: compile, small enough that one cold key only drops a bounded slice
    #: back to the per-op loop.
    FUSE_CHUNK = 4096

    #: Compiled fused runs kept before the run cache is wholesale
    #: cleared (same clear-don't-evict policy as the recipe memo).
    FUSED_CACHE_CAPACITY = 1024

    def __init__(
        self,
        kernel: Kernel,
        *,
        fast_path: bool = True,
        fuse_runs: bool = True,
        cpu=None,
    ) -> None:
        self.kernel = kernel
        self.fast_path = fast_path
        self.fuse_runs = fuse_runs
        #: Telemetry (plain attributes, *not* Stats counters — counters
        #: must stay byte-identical across full/recipe/fused modes):
        #: maximal streaks of fused chunks, and references replayed fused.
        self.fused_runs = 0
        self.fused_refs = 0
        #: The CPU this machine is pinned to (see class docstring).
        self.cpu = cpu if cpu is not None else kernel.cpus[kernel.current_cpu]
        self._cpu_id = self.cpu.cpu_id
        #: When set (see :meth:`record_trace`), every touch (and every
        #: explicit :class:`Switch` replayed by :meth:`run`) is appended
        #: here so a workload's reference stream can be saved and
        #: replayed on another model.
        self._trace_log: list[TraceOp] | None = None
        #: (pd_id, line, access) -> HotRecipe, valid for ``_memo_epoch``.
        self._memo: dict[tuple, object] = {}
        #: Keys of pure hits seen once this epoch.  A recipe is only
        #: built on a key's *second* pure hit: thrashing workloads whose
        #: lines are evicted before reuse then pay one set-add per hit
        #: instead of a full (pin + allocate) recipe construction.
        self._seen: set[tuple] = set()
        self._memo_epoch = -1
        #: (trace id, chunk offset) -> (chunk copy, FusedRun): runs are
        #: compiled *once* and replayed on later passes over the same
        #: trace.  The id is only a hint — a hit revalidates by comparing
        #: the live slice against the stored copy (element identity
        #: short-circuits at C speed, and value-equal Refs replay
        #: identically by definition), so id reuse or in-place trace
        #: mutation can never replay a stale compilation.  Valid for
        #: ``_memo_epoch``, cleared with the memo.
        self._fused_cache: dict[tuple[int, int], tuple[list, FusedRun]] = {}
        #: Epoch the fused cache is valid for — tracked separately from
        #: ``_memo_epoch`` because :meth:`touch` advances that one (and
        #: clears the memo) without seeing the fused cache.
        self._fused_epoch = -1
        self._line_shift = kernel.params.line_offset_bits
        # Raw counter store: the memo hit path and the fused-run merge
        # use an inline loop over it, skipping even the inc_many call.
        # Bound to the pinned CPU's stats (CPU 0 shares the kernel stats
        # object).
        self._counts = self.cpu.stats.counts_view()
        #: Reused container for fast-path results: the hot path rebinds
        #: ``.result`` instead of allocating.  Borrowed until the next
        #: fast-path touch — callers that keep results across touches get
        #: the slow path's fresh objects anyway (any fault or miss).
        self._fast_touch = TouchResult(None)  # type: ignore[arg-type]

    @property
    def stats(self) -> Stats:
        """The pinned CPU's stats (the kernel stats on a 1-CPU kernel)."""
        return self.cpu.stats

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
        pd_id = domain.pd_id
        if self._trace_log is not None:
            self._trace_log.append(Ref(pd_id, vaddr, access))

        fast = self.fast_path
        if fast:
            memo = self._memo
            epoch = kernel.mutation_epoch
            if epoch != self._memo_epoch:
                memo.clear()
                self._seen.clear()
                self._memo_epoch = epoch
            # ``_value_`` (an interned string with a cached hash) keys the
            # memo instead of the enum member, whose ``__hash__`` is a
            # Python-level call.  A resident recipe also implies the
            # recorded domain is still current: every kernel-mediated
            # switch traps, and every trap bumps the epoch that just
            # validated the memo.
            key = (pd_id, vaddr >> self._line_shift, access._value_)
            recipe = memo.get(key)
            if recipe is not None:
                # HotRecipe.apply, inlined: guards checked and LRU-touched
                # in one fused pass, then R/M bits, the reused result and
                # one batched stats merge.
                for odict, gkey, obj, do_touch in recipe.guard_steps:
                    if odict.get(gkey) is not obj:
                        del memo[key]
                        break
                    if do_touch:
                        odict.move_to_end(gkey)
                else:
                    extra = recipe.extra_guard
                    if extra is None or extra():
                        for entry in recipe.ref_entries:
                            entry.referenced = True
                        for entry in recipe.dirty_entries:
                            entry.dirty = True
                        result = recipe.result
                        paddr_page = recipe.paddr_page
                        if paddr_page is not None:
                            result.paddr = paddr_page | (vaddr & recipe.offset_mask)
                        counts = self._counts
                        for name, amount in recipe.counts_items:
                            counts[name] += amount
                        wrapper = self._fast_touch
                        wrapper.result = result
                        return wrapper
                    del memo[key]

        system = kernel.system
        if system.current_domain != pd_id:
            kernel.switch_to(domain)
        access_fast = system.access_fast
        protection_faults = 0
        page_faults = 0
        for _ in range(self.MAX_FAULTS):
            result = access_fast(vaddr, access)
            if result.__class__ is AccessResult:
                if (
                    fast
                    and result.cache_hit
                    and not protection_faults
                    and not page_faults
                    and not system.traces_references
                ):
                    # A pure hit: memoize it under the *current* epoch (a
                    # handler or switch above may have advanced it
                    # mid-touch).  The recipe is only built on the key's
                    # second pure hit (see ``_seen``).
                    memo = self._memo
                    seen = self._seen
                    epoch = kernel.mutation_epoch
                    if epoch != self._memo_epoch:
                        memo.clear()
                        seen.clear()
                        self._memo_epoch = epoch
                    elif len(memo) >= self.MEMO_CAPACITY:
                        memo.clear()
                    if key in seen:
                        recipe = system.hot_recipe(vaddr, access)
                        if recipe is not None:
                            memo[key] = recipe
                    else:
                        if len(seen) >= self.MEMO_CAPACITY:
                            seen.clear()
                        seen.add(key)
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
                self._trace_log.append(op)
            kernel.switch_to(kernel.domains[op.pd_id])
        else:
            raise TypeError(f"not a trace op: {op!r}")

    def run(self, trace: Iterable[TraceOp]) -> Stats:
        """Replay a trace; returns the stats accumulated by the run.

        List (and tuple) traces replay through the fused-run engine when
        ``fuse_runs`` is on: chunks whose references are all memoized
        pure hits execute as single :class:`FusedRun` steps; everything
        else — generator traces, recording runs, chunks with switches,
        cold keys, stale guards — takes the per-op loop, whose counters
        are byte-identical.
        """
        if self.kernel.current_cpu != self._cpu_id:
            self.kernel.set_current_cpu(self._cpu_id)
        before = self.stats.snapshot()
        if (
            self.fuse_runs
            and self.fast_path
            and self._trace_log is None
            and trace.__class__ in (list, tuple)
        ):
            self._run_fused(trace)
        else:
            self._run_ops(trace)
        return self.stats.delta(before)

    def _run_fused(self, ops: Sequence[TraceOp]) -> None:
        """Chunked fused replay of a sized trace (see :meth:`run`).

        Each chunk is compiled at most once: a later pass over the same
        trace finds the :class:`FusedRun` in the run cache, revalidates
        it (value-equal chunk, same epoch, live guards) and replays it as
        a single step.  The compile-side scan stays in C: an all-``Ref``
        type check, three ``attrgetter`` passes zipped into memo keys, a
        ``Counter`` for occurrence totals, a keys-view subset test
        against the memo, and ``dict.fromkeys`` over the reversed keys
        for last-occurrence order.  Only the compile of the (few,
        distinct) keys runs per-key Python, amortized over the chunk —
        and paid once per chunk per epoch, not once per pass.
        """
        kernel = self.kernel
        memo = self._memo
        fcache = self._fused_cache
        counts_store = self._counts
        shift = self._line_shift
        chunk_size = self.FUSE_CHUNK
        trace_id = id(ops)
        n = len(ops)
        i = 0
        in_run = False
        while i < n:
            off = i
            chunk = ops if (i == 0 and n <= chunk_size) else ops[i : i + chunk_size]
            i += len(chunk)
            epoch = kernel.mutation_epoch
            if epoch != self._memo_epoch:
                memo.clear()
                self._seen.clear()
                self._memo_epoch = epoch
            if epoch != self._fused_epoch:
                fcache.clear()
                self._fused_epoch = epoch
            cached = fcache.get((trace_id, off))
            if cached is not None:
                stored_chunk, fused = cached
                # Value comparison, not trust in the id: identical
                # element objects short-circuit in C, and distinct but
                # equal Refs replay identically anyway.
                if chunk == stored_chunk and fused.apply():
                    for name, amount in fused.counts.items():
                        counts_store[name] += amount
                    self.fused_refs += fused.length
                    if not in_run:
                        self.fused_runs += 1
                        in_run = True
                    continue
                del fcache[(trace_id, off)]
            if memo and set(map(type, chunk)) == _ONLY_REFS:
                keys = list(
                    zip(
                        map(_GET_PD, chunk),
                        map(rshift, map(_GET_VADDR, chunk), repeat(shift)),
                        map(_GET_ACCESS, chunk),
                    )
                )
                run_counts = Counter(keys)
                if run_counts.keys() <= memo.keys():
                    order = list(dict.fromkeys(reversed(keys)))
                    order.reverse()
                    fused = FusedRun(
                        [(memo[key], run_counts[key]) for key in order], len(chunk)
                    )
                    if fused.apply():
                        # A chunk aliasing the caller's own list is
                        # copied before caching, so in-place mutation of
                        # the trace can't satisfy the equality check
                        # against itself.
                        if len(fcache) >= self.FUSED_CACHE_CAPACITY:
                            fcache.clear()
                        fcache[(trace_id, off)] = (
                            list(chunk) if chunk is ops else chunk,
                            fused,
                        )
                        for name, amount in fused.counts.items():
                            counts_store[name] += amount
                        self.fused_refs += fused.length
                        if not in_run:
                            self.fused_runs += 1
                            in_run = True
                        continue
            # Anything non-fusable — a switch, a cold or faulting key, a
            # stale guard — replays this chunk per-op, warming the memo
            # for the chunks behind it.
            in_run = False
            self._run_ops(chunk)

    def _run_ops(self, trace: Iterable[TraceOp]) -> None:
        """Per-op replay loop (the fused engine's fallback)."""
        domains = self.kernel.domains
        touch = self.touch
        switch_to = self.kernel.switch_to
        for op in trace:
            # Exact-class dispatch covers every op the recorder emits;
            # isinstance only runs for foreign objects (to reject them).
            cls = op.__class__
            if cls is Ref:
                touch(domains[op.pd_id], op.vaddr, op.access)
            elif cls is Switch:
                if self._trace_log is not None:
                    # An explicit switch is part of the reference stream:
                    # dropping it would let a re-recorded trace diverge in
                    # switch costs when replayed on another model.
                    self._trace_log.append(op)
                switch_to(domains[op.pd_id])
            elif isinstance(op, Ref):
                touch(domains[op.pd_id], op.vaddr, op.access)
            elif isinstance(op, Switch):
                if self._trace_log is not None:
                    self._trace_log.append(op)
                switch_to(domains[op.pd_id])
            else:
                raise TypeError(f"not a trace op: {op!r}")

    def run_sharded(
        self,
        traces: Sequence[Iterable[TraceOp]],
        *,
        jobs: int | None = None,
        factory: Callable[[], "Machine"] | None = None,
    ) -> Stats:
        """Replay independent trace shards, merging their stats.

        Each shard is an independent trace replayed against a *fresh*
        machine built by ``factory`` (a zero-argument picklable callable
        — a module-level function or ``functools.partial`` over one), so
        shards cannot interfere and the merged result is deterministic:
        ``Stats`` counters commute, shards are merged in order, and the
        same shards produce the same totals for any ``jobs`` value.

        With ``jobs > 1`` shards fan out across a ``multiprocessing``
        pool; with ``jobs=1`` (or a single shard) they run in-process.
        Without a ``factory`` the shards replay sequentially on *this*
        machine (sharing its kernel state), which is only equivalent to
        the parallel mode when the caller does not care about cross-shard
        cache warmth — parallel runs therefore require ``factory``.
        """
        shards = [shard if isinstance(shard, list) else list(shard) for shard in traces]
        if not shards:
            return Stats()
        if factory is None:
            if jobs is not None and jobs > 1:
                raise ValueError("run_sharded with jobs > 1 requires a factory")
            merged = Stats()
            for shard in shards:
                merged.merge(self.run(shard))
            return merged
        if jobs is None:
            jobs = os.cpu_count() or 1
        jobs = max(1, min(jobs, len(shards)))
        merged = Stats()
        if jobs == 1:
            for shard in shards:
                merged.inc_many(_replay_shard((factory, shard)))
            return merged
        with multiprocessing.get_context().Pool(jobs) as pool:
            # pool.map returns results in shard order (not completion
            # order), so the merge sequence is deterministic.
            for counts in pool.map(_replay_shard, [(factory, s) for s in shards]):
                merged.inc_many(counts)
        return merged


class SMPMachine:
    """Interleaves per-CPU reference streams over one SMP kernel.

    One :class:`Machine` per :class:`~repro.os.smp.CpuContext`, all
    sharing the kernel (and its authority).  :meth:`run` round-robins
    the CPUs in fixed quanta — CPU 0 runs ``quantum`` ops, then CPU 1,
    ... — so a run is *deterministic*: the same shards and quantum
    produce the same interleaving, the same shootdown traffic and the
    same merged counters on every run.  Each CPU keeps its own replay
    memo, guarded by its own mutation epoch: verbs and shootdowns
    delivered to a CPU invalidate that CPU's memo only (the PR-4 fast
    path stays valid per CPU).
    """

    def __init__(self, kernel: Kernel, *, fast_path: bool = True, quantum: int = 32) -> None:
        if quantum < 1:
            raise ValueError(f"quantum must be >= 1, got {quantum}")
        self.kernel = kernel
        self.quantum = quantum
        #: One pinned machine per CPU, in CPU order.
        self.machines = [
            Machine(kernel, fast_path=fast_path, cpu=ctx) for ctx in kernel.cpus
        ]

    def machine_for(self, cpu_id: int) -> Machine:
        return self.machines[cpu_id]

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
        """Interleave one trace shard per CPU; returns the merged delta.

        ``shards[k]`` replays on CPU ``k`` (at most one shard per CPU).
        Round-robin with a fixed quantum: deterministic interleaving,
        deterministic merged stats (kernel + remote CPUs, in CPU order).
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
        before = kernel.merged_stats()
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
        return kernel.merged_stats().delta(before)

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
        before = kernel.merged_stats()
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
        return kernel.merged_stats().delta(before)
