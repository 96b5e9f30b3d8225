"""Every way of driving the reference fast path must be observationally identical.

The fast path is ``MemorySystem.access_fast`` (ARCHITECTURE.md §9): one
reference through the model's structures, with faults *returned* rather
than raised.  Three drivers reach it and must end with equal
``Stats.as_dict()`` — every counter, every value, across every model:

- ``fast``: :meth:`Machine.run`, the exception-free fault-retry loop
  every workload, the CLI and the ledger use;
- ``raising``: the raising wrapper ``MemorySystem.access``, with faults
  travelling as exceptions to the same kernel handlers;
- ``traced``: :meth:`Machine.run` under a sampling tracer, which wraps
  ``access_fast`` in a ``mem.access`` span per reference.

These tests replay the check package's seeded scenario streams (the
same op vocabulary the differential oracle fuzzes with) through all
three, batching consecutive touches into list traces, including under
an armed fault injector and on a two-CPU kernel, so any divergence — a
fault lost or double-handled on one protocol, a span that charges a
counter, a retry that skips an LRU touch — shows up as a counter
mismatch.
"""

from __future__ import annotations

import pytest

from repro.check import ops as opmod
from repro.check.ops import SCENARIOS, generate_ops
from repro.core.mmu import PageFault, ProtectionFault
from repro.core.rights import AccessType, Rights
from repro.faults.errors import HardwareFault
from repro.faults.plan import FaultInjector, FaultPlan
from repro.faults.scrub import Scrubber
from repro.obs.tracer import Tracer
from repro.os.kernel import MODELS, Kernel, KernelError, SegmentationViolation
from repro.sim.machine import FaultLoop, Machine
from repro.sim.trace import Ref

N_OPS = 250
#: 5 scenarios x 4 seeds = 20 distinct op streams per model.
SEEDS = (0, 1, 2, 3)
SCENARIO_SEEDS = [
    (name, seed) for name in sorted(SCENARIOS) for seed in SEEDS
]

MODES = ("fast", "raising", "traced")

_SKIPPED = (KernelError, SegmentationViolation, KeyError, HardwareFault)


class RaisingMachine:
    """:class:`Machine` over the raising ``MemorySystem.access``.

    The same pinned-CPU, switch-then-retry protocol as
    :meth:`Machine.touch`, with faults caught as exceptions instead of
    dispatched on the returned object's class.
    """

    def __init__(self, kernel: Kernel, *, cpu) -> None:
        self.kernel = kernel
        self.cpu_id = cpu.cpu_id

    def run(self, trace) -> None:
        kernel = self.kernel
        for ref in trace:
            if kernel.current_cpu != self.cpu_id:
                kernel.set_current_cpu(self.cpu_id)
            domain = kernel.domains[ref.pd_id]
            if kernel.system.current_domain != domain.pd_id:
                kernel.switch_to(domain)
            for _ in range(Machine.MAX_FAULTS):
                try:
                    kernel.system.access(ref.vaddr, ref.access)
                    break
                except ProtectionFault as fault:
                    kernel.handle_protection_fault(fault)
                except PageFault as fault:
                    kernel.handle_page_fault(fault)
            else:
                raise FaultLoop(f"access at {ref.vaddr:#x} still faulting")


def _apply_verb(kernel, domains, segments, op) -> None:
    """One non-touch scenario op against one kernel (the differ's vocabulary)."""
    if isinstance(op, opmod.CreateDomain):
        domain = kernel.create_domain(op.name)
        domains[domain.pd_id] = domain
    elif isinstance(op, opmod.CreateSegment):
        segment = kernel.create_segment(op.name, op.n_pages, populate=op.populate)
        segments[segment.seg_id] = segment
    elif isinstance(op, opmod.Attach):
        kernel.attach(domains[op.pd], segments[op.seg], op.rights)
    elif isinstance(op, opmod.Detach):
        kernel.detach(domains[op.pd], segments[op.seg])
    elif isinstance(op, opmod.SetPageRights):
        kernel.set_page_rights(domains[op.pd], op.vpn, op.rights)
    elif isinstance(op, opmod.SetSegmentRights):
        kernel.set_segment_rights(domains[op.pd], segments[op.seg], op.rights)
    elif isinstance(op, opmod.SetRightsAll):
        kernel.set_rights_all_domains(op.vpn, op.rights)
    elif isinstance(op, opmod.PageOut):
        kernel.free_page(op.vpn)
    elif isinstance(op, opmod.PageIn):
        kernel.populate_page(op.vpn)
    elif isinstance(op, opmod.Switch):
        kernel.switch_to(domains[op.pd])
    elif isinstance(op, opmod.DestroySegment):
        kernel.destroy_segment(segments.pop(op.seg))
    else:  # pragma: no cover - generator never emits anything else
        raise TypeError(f"unknown op {op!r}")


def _forest(spans) -> list:
    """A span forest as nested ``(name, cycles, children)`` tuples."""
    return [(span.name, span.cycles, _forest(span.children)) for span in spans]


def replay(model: str, scenario: str, seed: int, *, mode: str,
           chaos: bool = False, n_cpus: int = 1,
           reps: int = 1, verb_tracer: bool = False) -> dict[str, int]:
    """Replay one seeded scenario stream; returns the final merged counters.

    Consecutive touches are batched into ``Ref`` lists and flushed
    through the mode's driver — the batching is a function of the op
    stream alone, so every mode replays the *identical* sequence of
    batches and verbs.  Under chaos the injector must tick at every op
    index, so batches collapse to single refs.  With ``n_cpus > 1`` one
    pinned machine per CPU takes the batches round-robin; stats are
    compared merged.  Ops the kernel rejects (gold-invalid edges,
    faulting touches, fault injections) abort their batch at the
    faulting ref; both the skipped set and the abort points are
    mode-independent, so any counter difference is the driver's fault.

    ``reps`` replays every batch that many times (the *same* list
    object, in every mode), so the later passes run on warm hardware.

    ``verb_tracer`` attaches a verb-level tracer (``references=False``, the
    one ``repro serve`` runs under) before the stream starts; its span
    forest is left in ``replay.last_forest``.
    """
    spec = SCENARIOS[scenario]
    kernel = Kernel(
        model, n_frames=256, n_cpus=n_cpus,
        system_options=spec.system_options(model),
    )
    tracer = None
    if verb_tracer:
        tracer = Tracer(kernel.stats, references=False)
        kernel.attach_tracer(tracer)
    elif mode == "traced":
        kernel.attach_tracer(Tracer(kernel.stats))
    if mode == "raising":
        machines = [RaisingMachine(kernel, cpu=ctx) for ctx in kernel.cpus]
    else:
        machines = [Machine(kernel, cpu=ctx) for ctx in kernel.cpus]
    stream = generate_ops(spec, seed, N_OPS)
    injector = scrubber = None
    if chaos:
        injector = FaultInjector(FaultPlan.generate("mixed", seed, N_OPS))
        injector.arm(kernel)
        scrubber = Scrubber(kernel)
    domains: dict = {}
    segments: dict = {}
    batch: list[Ref] = []
    turn = 0

    def flush() -> None:
        nonlocal turn
        if not batch:
            return
        machine = machines[turn % len(machines)]
        turn += 1
        chunk = list(batch)
        for _ in range(reps):
            try:
                machine.run(chunk)
            except _SKIPPED:
                pass
        batch.clear()

    for index, op in enumerate(stream):
        if injector is not None:
            flush()
            try:
                injector.tick(index)
            except HardwareFault:
                pass
        if isinstance(op, opmod.Touch):
            # A touch naming a never-created domain is a gold-invalid
            # edge the per-op loop skipped via KeyError; drop it at
            # batch-build time instead (same skipped set, all modes).
            if op.pd in domains:
                batch.append(Ref(op.pd, op.vaddr, op.access))
                if chaos:
                    flush()
        else:
            flush()
            try:
                _apply_verb(kernel, domains, segments, op)
            except _SKIPPED:
                pass
        if scrubber is not None and (index + 1) % 16 == 0:
            flush()
            scrubber.scrub()
    flush()
    if injector is not None:
        injector.flush_delayed()
        scrubber.scrub()
        injector.disarm()
    replay.last_forest = _forest(tracer.finish()) if tracer is not None else None
    return kernel.merged_stats().as_dict()


def _pure_hit(kernel, touch) -> bool:
    """Served from warm hardware alone: ``touch()`` takes no fault, and
    every counter it moves is ``refs`` or a hit (no refill, no miss)."""
    before = kernel.stats.snapshot()
    faulted = touch().faulted
    delta = kernel.stats.delta(before).as_dict()
    return not faulted and all(key == "refs" or key.endswith(".hit") for key in delta)


class TestByteIdenticalStats:
    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize(
        "scenario,seed", SCENARIO_SEEDS,
        ids=[f"{name}-s{seed}" for name, seed in SCENARIO_SEEDS],
    )
    def test_three_modes_agree(self, model, scenario, seed):
        fast, raising, traced = (
            replay(model, scenario, seed, mode=mode) for mode in MODES
        )
        assert raising == fast
        assert traced == fast

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("seed", (0, 1))
    def test_three_modes_agree_under_chaos(self, model, seed):
        """Equivalence holds with an armed injector corrupting state."""
        fast, raising, traced = (
            replay(model, "fuzz", seed, mode=mode, chaos=True) for mode in MODES
        )
        assert raising == fast
        assert traced == fast

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_three_modes_agree_on_two_cpus(self, model, scenario):
        """Merged SMP counters agree: remote shootdowns land the same way
        whichever protocol the pinned machines drive."""
        fast, raising, traced = (
            replay(model, scenario, 0, mode=mode, n_cpus=2) for mode in MODES
        )
        assert raising == fast
        assert traced == fast

    @pytest.mark.parametrize("model", MODELS)
    def test_repeated_batches_fuse_and_agree(self, model):
        """Repeat passes fuse each batch into back-to-back replays on warm
        hardware; the matrix is not vacuous — the corpus really serves
        more references from warm hardware than one pass does — and
        every mode still agrees."""
        warm_hits = 0
        for scenario in sorted(SCENARIOS):
            once = replay(model, scenario, 0, mode="fast")
            fast, raising, traced = (
                replay(model, scenario, 0, mode=mode, reps=5) for mode in MODES
            )
            assert raising == fast, f"{scenario} diverged at reps=5"
            assert traced == fast, f"{scenario}: tracing moved a counter"
            warm_hits += fast.get("dcache.hit", 0) - once.get("dcache.hit", 0)
        assert warm_hits > 0


class TestWarmHardware:
    """Guard against a vacuous suite: the hardware must actually memoize.

    The lookaside structures (PLB, TLBs, page-group cache) and the data
    cache are the only memo on the reference path; a repeat reference
    must be served from them alone.
    """

    @pytest.mark.parametrize("model", MODELS)
    def test_repeat_reads_hit_warm_hardware(self, model):
        kernel = Kernel(model)
        machine = Machine(kernel)
        domain = kernel.create_domain("app")
        segment = kernel.create_segment("data", 1)
        kernel.attach(domain, segment, Rights.RW)
        vaddr = kernel.params.vaddr(segment.base_vpn)

        def read():
            return machine.read(domain, vaddr)

        assert not _pure_hit(kernel, read)  # cold: faults in
        read()
        before = kernel.stats.snapshot()
        assert _pure_hit(kernel, read)
        assert kernel.stats.delta(before)["refs"] == 1


class TestVerbLevelTracer:
    """A live verb-level tracer (``references=False``, as in serve) leaves
    the fast path unwrapped and observes the same thing whichever
    protocol drives it."""

    @pytest.mark.parametrize("model", MODELS)
    def test_repeat_reads_hit_under_the_tracer(self, model):
        """The hardware keeps recording its entries under the tracer:
        repeat reads still hit, and only verbs open spans."""
        kernel = Kernel(model)
        tracer = Tracer(kernel.stats, references=False)
        kernel.attach_tracer(tracer)
        assert kernel.system.access_fast == kernel.system._access_fast
        machine = Machine(kernel)
        domain = kernel.create_domain("app")
        segment = kernel.create_segment("data", 1)
        kernel.attach(domain, segment, Rights.RW)
        vaddr = kernel.params.vaddr(segment.base_vpn)
        for _ in range(2):
            machine.read(domain, vaddr)
        assert _pure_hit(kernel, lambda: machine.read(domain, vaddr))
        names = {span.name for span in tracer.finish()}
        assert "kernel.attach" in names
        assert "mem.access" not in names

    @pytest.mark.parametrize("model", MODELS)
    def test_twins_agree_on_counters_and_span_forests(self, model):
        for scenario in sorted(SCENARIOS):
            untraced = replay(model, scenario, 0, mode="fast", reps=5)
            fast = replay(model, scenario, 0, mode="fast", reps=5,
                          verb_tracer=True)
            fast_forest = replay.last_forest
            raising = replay(model, scenario, 0, mode="raising", reps=5,
                             verb_tracer=True)
            assert fast == untraced, f"{scenario}: tracing moved a counter"
            assert raising == fast, f"{scenario}: counters diverged"
            assert fast_forest, f"{scenario}: no spans recorded"
            assert replay.last_forest == fast_forest, f"{scenario}: spans diverged"


class TestFusedEngages:
    """A hot trace replays fused: back to back from warm hardware, with
    no refill and no kernel entry, byte-identically on every pass."""

    @pytest.mark.parametrize("model", MODELS)
    def test_hot_trace_replays_fused(self, model):
        def build():
            kernel = Kernel(model)
            machine = Machine(kernel)
            domain = kernel.create_domain("app")
            segment = kernel.create_segment("data", 4, populate=True)
            kernel.attach(domain, segment, Rights.RW)
            base = kernel.params.vaddr(segment.base_vpn)
            trace = [
                Ref(domain.pd_id, base + (i % 4) * 64,
                    AccessType.WRITE if i % 3 == 0 else AccessType.READ)
                for i in range(256)
            ]
            return kernel, machine, trace

        kernel, machine, trace = build()
        machine.run(trace)  # warm: fills every structure
        hot = machine.run(trace).as_dict()
        assert hot["refs"] == len(trace)
        assert all(key == "refs" or key.endswith(".hit") for key in hot)
        assert machine.run(trace).as_dict() == hot

        # The raising protocol replays the identical schedule and must
        # land on identical counters.
        kernel2, _, trace2 = build()
        raising = RaisingMachine(kernel2, cpu=kernel2.cpus[0])
        for _ in range(3):
            raising.run(trace2)
        assert kernel.stats.as_dict() == kernel2.stats.as_dict()
