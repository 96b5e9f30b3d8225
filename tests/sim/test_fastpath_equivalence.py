"""Fused, recipe and full replay must be observationally identical.

The replay tower (ARCHITECTURE.md §9) claims byte-identical stats at
every rung: a :class:`Machine` with the fast path off (full walk), one
replaying per-hit recipes (``fast_path=True, fuse_runs=False``) and one
fusing whole runs of memoized hits (``fuse_runs=True``) must end with
equal ``Stats.as_dict()`` — every counter, every value, across every
model.  These tests replay the check package's seeded scenario streams
(the same op vocabulary the differential oracle fuzzes with) through all
three modes, batching consecutive touches into list traces so the
fused-run engine actually engages, including under an armed fault
injector and on a two-CPU kernel, so any divergence — skipped LRU
touches, missed R/M bits, stale hits across a protection change, a fused
chunk replayed past an epoch bump — shows up as a counter mismatch.
"""

from __future__ import annotations

import pytest

from repro.check import ops as opmod
from repro.check.ops import SCENARIOS, generate_ops
from repro.core.rights import AccessType, Rights
from repro.faults.errors import HardwareFault
from repro.faults.plan import FaultInjector, FaultPlan
from repro.faults.scrub import Scrubber
from repro.obs.tracer import Tracer
from repro.os.kernel import MODELS, Kernel, KernelError, SegmentationViolation
from repro.sim.machine import Machine
from repro.sim.trace import Ref

N_OPS = 250
#: 5 scenarios x 4 seeds = 20 distinct op streams per model.
SEEDS = (0, 1, 2, 3)
SCENARIO_SEEDS = [
    (name, seed) for name in sorted(SCENARIOS) for seed in SEEDS
]

#: The three replay rungs: mode name -> (fast_path, fuse_runs).
MODES = {
    "full": (False, False),
    "recipe": (True, False),
    "fused": (True, True),
}

_SKIPPED = (KernelError, SegmentationViolation, KeyError, HardwareFault)


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
    through :meth:`Machine.run` — the batching is a function of the op
    stream alone, so every mode replays the *identical* sequence of
    batches and verbs, and the fused engine sees real multi-ref runs.
    Under chaos the injector must tick at every op index, so batches
    collapse to single refs (a one-element list still exercises the
    fused machinery).  With ``n_cpus > 1`` one pinned machine per CPU
    takes the batches round-robin; stats are compared merged.  Ops the
    kernel rejects (gold-invalid edges, faulting touches, fault
    injections) abort their batch at the faulting ref; both the skipped
    set and the abort points are mode-independent, so any counter
    difference is the replay path's fault.

    ``reps`` replays every batch that many times (the *same* list
    object, in every mode): verbs clear the memo, so single-pass
    streams rarely accumulate the two same-epoch hits a recipe — let
    alone a fused run — needs.  Repeat passes warm the memo on the
    early reps and replay fused (through the run cache's id+value
    revalidation) on the later ones, while the executed schedule stays
    mode-independent.

    ``verb_tracer`` attaches a verb-level tracer (``sample_every=0``, the
    one ``repro serve`` runs under) before the stream starts; its span
    forest is left in ``replay.last_forest``.
    """
    spec = SCENARIOS[scenario]
    fast, fuse = MODES[mode]
    kernel = Kernel(
        model, n_frames=256, n_cpus=n_cpus,
        system_options=spec.system_options(model),
    )
    tracer = None
    if verb_tracer:
        tracer = Tracer(kernel.stats, sample_every=0)
        kernel.attach_tracer(tracer)
    machines = [
        Machine(kernel, fast_path=fast, fuse_runs=fuse, cpu=ctx)
        for ctx in kernel.cpus
    ]
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
    # Telemetry for the vacuity guard (not a counter: modes must stay
    # byte-identical, so fused engagement is tracked out of band).
    replay.last_fused_refs = sum(m.fused_refs for m in machines)
    replay.last_forest = _forest(tracer.finish()) if tracer is not None else None
    return kernel.merged_stats().as_dict()


class TestByteIdenticalStats:
    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize(
        "scenario,seed", SCENARIO_SEEDS,
        ids=[f"{name}-s{seed}" for name, seed in SCENARIO_SEEDS],
    )
    def test_three_modes_agree(self, model, scenario, seed):
        full = replay(model, scenario, seed, mode="full")
        recipe = replay(model, scenario, seed, mode="recipe")
        fused = replay(model, scenario, seed, mode="fused")
        assert recipe == full
        assert fused == full

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("seed", (0, 1))
    def test_three_modes_agree_under_chaos(self, model, seed):
        """Equivalence holds with an armed injector corrupting state."""
        full = replay(model, "fuzz", seed, mode="full", chaos=True)
        recipe = replay(model, "fuzz", seed, mode="recipe", chaos=True)
        fused = replay(model, "fuzz", seed, mode="fused", chaos=True)
        assert recipe == full
        assert fused == full

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_three_modes_agree_on_two_cpus(self, model, scenario):
        """Merged SMP counters agree: fused replay respects remote bumps."""
        full = replay(model, scenario, 0, mode="full", n_cpus=2)
        recipe = replay(model, scenario, 0, mode="recipe", n_cpus=2)
        fused = replay(model, scenario, 0, mode="fused", n_cpus=2)
        assert recipe == full
        assert fused == full

    @pytest.mark.parametrize("model", MODELS)
    def test_repeated_batches_fuse_and_agree(self, model):
        """The matrix is not vacuous: with repeat passes the corpus
        replays fused runs, and the counters still match the full walk."""
        # Five passes per batch: faults and mid-batch domain switches
        # keep bumping the epoch on the early passes, so a recipe only
        # lands around pass 3 and a fused apply around pass 4-5.
        fused_total = 0
        for scenario in sorted(SCENARIOS):
            full = replay(model, scenario, 0, mode="full", reps=5)
            fused = replay(model, scenario, 0, mode="fused", reps=5)
            assert fused == full, f"{scenario} diverged at reps=5"
            fused_total += replay.last_fused_refs
        assert fused_total > 0


class TestMemoEngages:
    """Guard against a vacuous suite: the fast path must actually fire."""

    @pytest.mark.parametrize("model", MODELS)
    def test_repeat_hits_are_memoized(self, model):
        kernel = Kernel(model)
        machine = Machine(kernel)
        domain = kernel.create_domain("app")
        segment = kernel.create_segment("data", 1)
        kernel.attach(domain, segment, Rights.RW)
        vaddr = kernel.params.vaddr(segment.base_vpn)
        # First hit seeds _seen, second records the recipe, third replays.
        for _ in range(3):
            machine.read(domain, vaddr)
        assert machine._memo, "no recipe recorded for a repeat pure hit"
        before = kernel.stats["refs"]
        machine.read(domain, vaddr)
        assert kernel.stats["refs"] == before + 1

    def test_fast_path_off_never_memoizes(self):
        kernel = Kernel("plb")
        machine = Machine(kernel, fast_path=False)
        domain = kernel.create_domain("app")
        segment = kernel.create_segment("data", 1)
        kernel.attach(domain, segment, Rights.RW)
        vaddr = kernel.params.vaddr(segment.base_vpn)
        for _ in range(5):
            machine.read(domain, vaddr)
        assert not machine._memo


class TestVerbLevelTracer:
    """A live verb-level tracer (``sample_every=0``, as in serve) keeps
    the memo on and observes the same thing on either replay path."""

    @pytest.mark.parametrize("model", MODELS)
    def test_memo_records_recipes(self, model):
        kernel = Kernel(model)
        tracer = Tracer(kernel.stats, sample_every=0)
        kernel.attach_tracer(tracer)
        machine = Machine(kernel)
        domain = kernel.create_domain("app")
        segment = kernel.create_segment("data", 1)
        kernel.attach(domain, segment, Rights.RW)
        vaddr = kernel.params.vaddr(segment.base_vpn)
        for _ in range(3):
            machine.read(domain, vaddr)
        assert machine._memo, "a verb-level tracer switched the memo off"
        names = {span.name for span in tracer.finish()}
        assert "kernel.attach" in names
        assert "mem.access" not in names

    @pytest.mark.parametrize("model", MODELS)
    def test_twins_agree_on_counters_and_span_forests(self, model):
        fused_total = 0
        for scenario in sorted(SCENARIOS):
            untraced = replay(model, scenario, 0, mode="full", reps=5)
            full = replay(model, scenario, 0, mode="full", reps=5,
                          verb_tracer=True)
            full_forest = replay.last_forest
            fast = replay(model, scenario, 0, mode="fused", reps=5,
                          verb_tracer=True)
            fused_total += replay.last_fused_refs
            assert full == untraced, f"{scenario}: tracing moved a counter"
            assert fast == full, f"{scenario}: counters diverged"
            assert full_forest, f"{scenario}: no spans recorded"
            assert replay.last_forest == full_forest, f"{scenario}: spans diverged"
        assert fused_total > 0, "the fast twin never replayed from the memo"


class TestFusedEngages:
    """The fused engine must fire on a hot trace, byte-identically."""

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
        machine.run(trace)  # warm: seeds _seen, records recipes
        machine.run(trace)  # compiles and applies the fused run
        assert machine.fused_refs > 0
        assert machine.fused_runs > 0
        compiled = machine.fused_refs
        machine.run(trace)  # replays from the fused-run cache
        assert machine.fused_refs == 2 * compiled

        # The recipe-only machine replays the identical schedule and
        # must land on identical counters.
        kernel2, machine2, trace2 = build()
        machine2 = Machine(kernel2, fuse_runs=False)
        for _ in range(3):
            machine2.run(trace2)
        assert machine2.fused_refs == 0
        assert kernel.stats.as_dict() == kernel2.stats.as_dict()
