"""Every mutation path must end the protection epoch it ran in.

A *protection epoch* is the stretch of references between two changes
to protection or translation state.  The hardware carries state across
references — PLB and page-group entries, TLB translations, data-cache
lines — so every way that state can change (each kernel verb, fault
handling, remote shootdown delivery, the scrubber's repair path) must
leave no cached entry that answers a reference in the new epoch the
way the old one did.

Each case warms a machine, runs the mutation, then holds the warm
hardware to two standards: the structural audit
(:func:`repro.check.invariants.check_invariants`) finds nothing stale,
and every (domain, page, access) probe gets the same answer — allowed,
protection fault and its reason, or page fault — as on a cold twin
that went through the same kernel history without ever caching
anything.  A verb added without the invalidation its model needs fails
here before a workload can take a stale hit.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.check.invariants import check_invariants
from repro.core.mmu import PageFault, ProtectionFault
from repro.core.rights import AccessType, Rights
from repro.faults.errors import HardwareFault
from repro.faults.plan import FaultEvent, FaultInjector, FaultPlan
from repro.faults.scrub import Scrubber
from repro.obs.tracer import Tracer
from repro.os.kernel import MODELS, Kernel
from repro.os.smp import TRANSLATION, ShootdownMessage
from repro.sim.machine import Machine
from repro.sim.trace import Ref


class Env:
    """A kernel mid-flight: two domains sharing a populated segment."""

    def __init__(self, model: str, *, inverted_table: bool = False) -> None:
        self.kernel = Kernel(model, n_frames=64, inverted_table=inverted_table)
        self.d1 = self.kernel.create_domain("d1")
        self.d2 = self.kernel.create_domain("d2")
        self.seg = self.kernel.create_segment("seg", 4, populate=True)
        self.kernel.attach(self.d1, self.seg, Rights.RW)
        self.kernel.attach(self.d2, self.seg, Rights.READ)
        self.kernel.switch_to(self.d1)


# Each case: env -> zero-arg callable.  Setup that itself mutates runs
# in the builder, *before* the machine warms up, so only the verb under
# test separates the warm machine from its cold twin.
VERB_CASES = {
    "create_domain": lambda e: lambda: e.kernel.create_domain("d3"),
    "create_segment": lambda e: lambda: e.kernel.create_segment("s2", 2),
    "attach": lambda e: (
        lambda seg: lambda: e.kernel.attach(e.d1, seg, Rights.RW)
    )(e.kernel.create_segment("s2", 2)),
    "detach": lambda e: lambda: e.kernel.detach(e.d2, e.seg),
    "set_page_rights": lambda e: lambda: e.kernel.set_page_rights(
        e.d1, e.seg.base_vpn, Rights.READ
    ),
    "set_segment_rights": lambda e: lambda: e.kernel.set_segment_rights(
        e.d1, e.seg, Rights.READ
    ),
    "set_rights_all_domains": lambda e: lambda: e.kernel.set_rights_all_domains(
        e.seg.base_vpn, Rights.READ
    ),
    "switch_to": lambda e: lambda: e.kernel.switch_to(e.d2),
    "destroy_segment": lambda e: (
        lambda seg: lambda: e.kernel.destroy_segment(seg)
    )(_attached(e, e.kernel.create_segment("doomed", 2, populate=True))),
    "populate_page": lambda e: (
        lambda seg: lambda: e.kernel.populate_page(seg.base_vpn)
    )(_attached(e, e.kernel.create_segment("cold", 2, populate=False))),
    "unmap_page": lambda e: lambda: e.kernel.unmap_page(e.seg.base_vpn),
    "free_page": lambda e: lambda: e.kernel.free_page(e.seg.base_vpn),
    "rebuild_protection_state": lambda e: lambda: (
        e.kernel.rebuild_protection_state()
    ),
    "attach_tracer": lambda e: lambda: e.kernel.attach_tracer(
        Tracer(e.kernel.stats)
    ),
}

GROUP_CASES = {
    "grant_group": lambda e: lambda: e.kernel.grant_group(e.d2, 1),
    "revoke_group": lambda e: (
        lambda: (e.kernel.grant_group(e.d2, 1), e.kernel.revoke_group(e.d2, 1))
    ),
    "move_page_to_group": lambda e: lambda: e.kernel.move_page_to_group(
        e.seg.base_vpn, 1
    ),
    "set_page_rights_global": lambda e: lambda: (
        e.kernel.set_page_rights_global(e.seg.base_vpn, Rights.READ)
    ),
}


def _attached(env: Env, segment):
    """Attach ``segment`` to d1 so the warm-up caches its pages."""
    env.kernel.attach(env.d1, segment, Rights.RW)
    return segment


def _pages(kernel) -> set[int]:
    return {vpn for seg in kernel.segments.values() for vpn in seg.vpns()}


def _outcome(result) -> str:
    if isinstance(result, ProtectionFault):
        return f"protection:{result.reason.value}"
    if isinstance(result, PageFault):
        return "page"
    return "allowed"


def probe(kernel, vpns, cpu: int = 0) -> dict:
    """What one CPU's hardware answers, right now, to a read and a write
    of every page in ``vpns`` by every domain.

    Runs the bare reference path (``access_fast``): faults come back as
    answers and reach no handler, so probing changes no kernel state.
    Probing the same kernel twice in a row therefore warms the hardware
    without changing a single answer.
    """
    kernel.set_current_cpu(cpu)
    system = kernel.system
    answers = {}
    for pd_id, domain in sorted(kernel.domains.items()):
        kernel.switch_to(domain)
        for vpn in sorted(vpns):
            vaddr = kernel.params.vaddr(vpn)
            for access in (AccessType.READ, AccessType.WRITE):
                answers[pd_id, vpn, access.name] = _outcome(
                    system.access_fast(vaddr, access)
                )
    return answers


def _hot_pass(delta) -> bool:
    """A pass served wholly from warm hardware: hits, nothing else."""
    return all(key == "refs" or key.endswith(".hit") for key in delta.as_dict())


def assert_epoch_ended(warm: Env, cold: Env, vpns, cpu: int = 0) -> None:
    """The warm kernel answers like its cold twin and audits clean."""
    assert check_invariants(warm.kernel) == []
    vpns = set(vpns) | _pages(warm.kernel)
    assert probe(warm.kernel, vpns, cpu) == probe(cold.kernel, vpns, cpu)
    assert check_invariants(warm.kernel) == []


def _verb_case(model: str, cases: dict, verb: str):
    """Two identical envs, one to warm and one to keep cold, each with
    the verb built and ready to run; plus the pages they hold."""
    warm, cold = Env(model), Env(model)
    warm_call, cold_call = cases[verb](warm), cases[verb](cold)
    vpns = _pages(warm.kernel)
    return warm, warm_call, cold, cold_call, vpns


class TestVerbMatrix:
    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("verb", sorted(VERB_CASES))
    def test_verb_bumps_epoch(self, model, verb):
        warm, warm_call, cold, cold_call, vpns = _verb_case(
            model, VERB_CASES, verb
        )
        probe(warm.kernel, vpns)  # every domain, page and access cached
        warm.kernel.switch_to(warm.d1)
        warm_call()
        cold_call()
        assert_epoch_ended(warm, cold, vpns)

    @pytest.mark.parametrize("verb", sorted(GROUP_CASES))
    def test_group_verb_bumps_epoch(self, verb):
        warm, warm_call, cold, cold_call, vpns = _verb_case(
            "pagegroup", GROUP_CASES, verb
        )
        probe(warm.kernel, vpns)
        warm.kernel.switch_to(warm.d1)
        warm_call()
        cold_call()
        assert_epoch_ended(warm, cold, vpns)

    @pytest.mark.parametrize("model", MODELS)
    def test_fault_handling_bumps_epoch(self, model):
        """A page fault traps, and the kernel's fix reaches the hardware
        before the retry: the faulting write completes, and the next one
        takes no fault at all."""
        env = Env(model)
        machine = Machine(env.kernel)
        cold = env.kernel.create_segment("cold", 1, populate=False)
        env.kernel.attach(env.d1, cold, Rights.RW)
        vaddr = env.kernel.params.vaddr(cold.base_vpn)
        before = env.kernel.stats.snapshot()
        result = machine.write(env.d1, vaddr)
        assert result.page_faults == 1
        assert env.kernel.stats.delta(before)["kernel.trap"] >= 1
        assert not machine.write(env.d1, vaddr).faulted
        assert check_invariants(env.kernel) == []


class TestFusedRunSplits:
    """Every invalidation channel must split a fused run.

    A fused run is a hot trace replayed back to back: after the first
    pass every reference is served from warm hardware (hits only) and no
    kernel entry intervenes.  This matrix re-enumerates every kernel
    verb (and the remote-delivery paths) against a machine replaying a
    hot 512-reference trace: after the verb, the hardware must answer
    as a cold twin does.  A control case pins the opposite: with no
    verb, the next pass is hot again, counter for counter.
    """

    TRACE_LEN = 512

    def _hot_machine(self, env, cpu=None):
        machine = Machine(env.kernel, cpu=cpu)
        params = env.kernel.params
        base = params.vaddr(env.seg.base_vpn)
        line = params.cache_line_bytes
        trace = [
            Ref(env.d1.pd_id, base + (i % 64) * line, AccessType.READ)
            for i in range(self.TRACE_LEN)
        ]
        # Pass 1 warms the caches (misses); pass 2 runs hot.
        passes = [machine.run(trace) for _ in range(2)]
        assert _hot_pass(passes[-1]), "hot trace never ran from warm hardware"
        return machine, trace, passes[-1]

    def _split(self, model, cases, verb):
        warm, warm_call, cold, cold_call, vpns = _verb_case(model, cases, verb)
        machine, trace, _ = self._hot_machine(warm)
        cold_machine = Machine(cold.kernel)
        warm_call()
        cold_call()
        machine.run(trace)
        cold_machine.run(trace)
        assert_epoch_ended(warm, cold, vpns)

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("verb", sorted(VERB_CASES))
    def test_verb_splits_fused_run(self, model, verb):
        self._split(model, VERB_CASES, verb)

    @pytest.mark.parametrize("verb", sorted(GROUP_CASES))
    def test_group_verb_splits_fused_run(self, verb):
        self._split("pagegroup", GROUP_CASES, verb)

    @pytest.mark.parametrize("model", MODELS)
    def test_hot_replay_keeps_fusing_without_a_verb(self, model):
        """Control: no kernel entry, the next pass is hot end to end."""
        env = Env(model)
        machine, trace, hot = self._hot_machine(env)
        again = machine.run(trace)
        assert again.as_dict() == hot.as_dict()
        assert again["refs"] == self.TRACE_LEN

    @staticmethod
    def _smp_env(model):
        """A two-CPU kernel with one domain on a populated segment."""
        kernel = Kernel(model, n_frames=64, n_cpus=2)
        d1 = kernel.create_domain("d1")
        seg = kernel.create_segment("seg", 4, populate=True)
        kernel.attach(d1, seg, Rights.RW)
        return SimpleNamespace(kernel=kernel, d1=d1, seg=seg)

    @pytest.mark.parametrize("model", MODELS)
    def test_remote_verb_shootdown_splits_fused_run(self, model):
        """A verb on CPU 0 reaches CPU 1's hot run over the bus.

        ``unmap_page`` broadcasts a *translation* shootdown on every
        model (rights-only verbs may legitimately skip the bus — e.g.
        the page-group model propagates rights through the group
        table), so CPU 1 must answer like a CPU that never ran hot."""
        warm, cold = self._smp_env(model), self._smp_env(model)
        vpns = _pages(warm.kernel)
        self._hot_machine(warm, cpu=warm.kernel.cpus[1])
        for env in (warm, cold):
            env.kernel.set_current_cpu(0)
            env.kernel.unmap_page(env.seg.base_vpn)
        assert warm.kernel.stats["smp.tlb_shootdown.msgs"] >= 1
        assert_epoch_ended(warm, cold, vpns, cpu=1)

    @pytest.mark.parametrize("model", MODELS)
    def test_direct_remote_bump_splits_fused_run(self, model):
        """A message fired straight at CPU 1 (the bus's delivery
        primitive, as a delayed injector replay fires it) reaches CPU
        1's hardware even though no verb's broadcast selected it."""
        env = self._smp_env(model)
        self._hot_machine(env, cpu=env.kernel.cpus[1])
        kernel = env.kernel
        kernel.set_current_cpu(0)
        vpn = env.seg.base_vpn

        def invalidate(system):
            return kernel.ops.invalidate_translation_on(system, vpn)

        def fire():
            return ShootdownMessage(
                kernel, TRANSLATION, "test", 1, invalidate, remote=True
            ).fire()

        before = kernel.stats.snapshot()
        assert fire() == 1  # CPU 1 held the translation; now it is gone
        assert kernel.stats.delta(before)["smp.tlb_shootdown.entries"] == 1
        assert fire() == 0
        assert check_invariants(kernel) == []

    @pytest.mark.parametrize("model", MODELS)
    def test_sampling_tracer_splits_remote_fused_run(self, model):
        """Attaching a sampling tracer on CPU 0 rewires every CPU's
        reference path: CPU 1's next hot pass opens a ``mem.access`` span
        per reference and still counts exactly what it counted before."""
        env = self._smp_env(model)
        machine, trace, hot = self._hot_machine(env, cpu=env.kernel.cpus[1])
        env.kernel.set_current_cpu(0)
        tracer = Tracer(env.kernel.stats)
        env.kernel.attach_tracer(tracer)
        assert machine.run(trace).as_dict() == hot.as_dict()
        spans = [
            span for root in tracer.finish() for span in root.walk()
            if span.name == "mem.access"
        ]
        assert len(spans) == self.TRACE_LEN


class TestFaultSites:
    def test_injector_record_bumps_epoch(self):
        """The injector's record path counts each injection by site and
        kind, so a fault's epoch shows in the run's counters."""
        kernel = Kernel("plb")
        injector = FaultInjector(
            FaultPlan(events=(FaultEvent("disk", "transient_write", at=0),))
        )
        injector.arm(kernel)
        before = kernel.stats.snapshot()
        with pytest.raises(HardwareFault):
            kernel.backing.write(0x10, b"boom")
        delta = kernel.stats.delta(before)
        assert delta["faults.injected"] == 1
        assert delta["faults.injected.disk.transient_write"] == 1
        injector.disarm()

    @pytest.mark.parametrize(
        "model, inverted",
        [pytest.param(model, False, id=model) for model in MODELS]
        + [pytest.param(model, True, id=f"{model}-inverted") for model in MODELS],
    )
    def test_clean_audit_moves_only_scrub_counters(self, model, inverted):
        """The audit charges nothing: ``check_invariants`` moves no
        counter and a clean scrub moves only ``scrub.*``, even over an
        inverted table whose lookups are counted.  Warm entries survive
        and the next reference is still a pure hit."""
        env = Env(model, inverted_table=inverted)
        machine = Machine(env.kernel)
        vaddrs = [env.kernel.params.vaddr(vpn) for vpn in env.seg.vpns()]
        for vaddr in vaddrs:
            machine.write(env.d1, vaddr)
        before = env.kernel.stats.snapshot()
        assert check_invariants(env.kernel) == []
        assert env.kernel.stats.delta(before).as_dict() == {}
        assert Scrubber(env.kernel).scrub() == 0
        delta = env.kernel.stats.delta(before).as_dict()
        assert "scrub.repairs" not in delta
        assert all(key.startswith("scrub.") for key in delta)
        before = env.kernel.stats.snapshot()
        assert not machine.read(env.d1, vaddrs[0]).faulted
        assert _hot_pass(env.kernel.stats.delta(before))

    def test_repairing_scrub_restores_kernel_answers(self):
        """A scrub that rewrites a corrupted entry ends the epoch the
        corruption opened: the hardware answers per the kernel again."""
        env = Env("plb")
        machine = Machine(env.kernel)
        vaddr = env.kernel.params.vaddr(env.seg.base_vpn)
        machine.write(env.d1, vaddr)
        # Corrupt a PLB entry the touch installed, behind the kernel's
        # back (object mutation: no trap, no shootdown).
        entries = [
            entry for key, entry in env.kernel.system.plb.items()
            if key.level == 0
        ]
        assert entries
        entries[0].rights = Rights.NONE
        assert isinstance(
            env.kernel.system.access_fast(vaddr, AccessType.WRITE), ProtectionFault
        )
        assert Scrubber(env.kernel).scrub() >= 1
        assert not machine.write(env.d1, vaddr).faulted
        assert check_invariants(env.kernel) == []
