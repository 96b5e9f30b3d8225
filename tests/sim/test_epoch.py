"""Every mutation path must bump the kernel's ``mutation_epoch``.

The replay memo (ARCHITECTURE.md §9) is correct only if *every* way
protection or translation state can change advances the epoch that
invalidates it.  This matrix enumerates them: every kernel verb, the
fault injector's record path, and the scrubber's repair path.  A verb
added without a ``_trap``/``bump_epoch`` call fails here before it can
let the fast path serve a stale hit.
"""

from __future__ import annotations

import pytest

from repro.core.rights import Rights
from repro.faults.errors import HardwareFault
from repro.faults.plan import FaultEvent, FaultInjector, FaultPlan
from repro.faults.scrub import Scrubber
from repro.os.kernel import MODELS, Kernel


class Env:
    """A kernel mid-flight: two domains sharing a populated segment."""

    def __init__(self, model: str) -> None:
        self.kernel = Kernel(model, n_frames=64)
        self.d1 = self.kernel.create_domain("d1")
        self.d2 = self.kernel.create_domain("d2")
        self.seg = self.kernel.create_segment("seg", 4, populate=True)
        self.kernel.attach(self.d1, self.seg, Rights.RW)
        self.kernel.attach(self.d2, self.seg, Rights.READ)
        self.kernel.switch_to(self.d1)


# Each case: env -> zero-arg callable.  Setup that itself traps runs in
# the builder, *before* the epoch is sampled, so only the verb under
# test is credited with the bump.
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
    )(e.kernel.create_segment("doomed", 2)),
    "populate_page": lambda e: (
        lambda seg: lambda: e.kernel.populate_page(seg.base_vpn)
    )(e.kernel.create_segment("cold", 2, populate=False)),
    "unmap_page": lambda e: lambda: e.kernel.unmap_page(e.seg.base_vpn),
    "free_page": lambda e: lambda: e.kernel.free_page(e.seg.base_vpn),
    "rebuild_protection_state": lambda e: lambda: (
        e.kernel.rebuild_protection_state()
    ),
    "attach_tracer": lambda e: lambda: e.kernel.attach_tracer(
        __import__("repro.obs.tracer", fromlist=["Tracer"]).Tracer(e.kernel.stats)
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


class TestVerbMatrix:
    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("verb", sorted(VERB_CASES))
    def test_verb_bumps_epoch(self, model, verb):
        env = Env(model)
        call = VERB_CASES[verb](env)
        before = env.kernel.mutation_epoch
        call()
        assert env.kernel.mutation_epoch > before

    @pytest.mark.parametrize("verb", sorted(GROUP_CASES))
    def test_group_verb_bumps_epoch(self, verb):
        env = Env("pagegroup")
        call = GROUP_CASES[verb](env)
        before = env.kernel.mutation_epoch
        call()
        assert env.kernel.mutation_epoch > before

    @pytest.mark.parametrize("model", MODELS)
    def test_fault_handling_bumps_epoch(self, model):
        """Protection/page faults trap, so fault handling invalidates."""
        from repro.sim.machine import Machine

        env = Env(model)
        machine = Machine(env.kernel)
        cold = env.kernel.create_segment("cold", 1, populate=False)
        env.kernel.attach(env.d1, cold, Rights.RW)
        before = env.kernel.mutation_epoch
        result = machine.write(env.d1, env.kernel.params.vaddr(cold.base_vpn))
        assert result.page_faults == 1
        assert env.kernel.mutation_epoch > before


class TestFusedRunSplits:
    """Every invalidation channel must split a fused run.

    The fused-run engine (ARCHITECTURE.md §9) replays whole chunks of
    memoized hits under a single epoch check, so its correctness leans
    on the same invariant as the recipe memo — but through a separate
    cache with its own epoch tracking.  This matrix re-enumerates every
    kernel verb (and the remote-shootdown delivery path) against a
    machine with a hot, fully-fused 512-ref trace: after the verb, the
    next replay must fall back to the per-op loop (``fused_refs`` does
    not grow).  A control case pins the opposite: with no verb, the
    same replay keeps fusing.
    """

    TRACE_LEN = 512  # < Machine.FUSE_CHUNK, so the trace is one chunk

    def _hot_machine(self, env, cpu=None):
        from repro.core.rights import AccessType
        from repro.sim.machine import Machine
        from repro.sim.trace import Ref

        machine = Machine(env.kernel, cpu=cpu)
        params = env.kernel.params
        base = params.vaddr(env.seg.base_vpn)
        line = params.cache_line_bytes
        trace = [
            Ref(env.d1.pd_id, base + (i % 64) * line, AccessType.READ)
            for i in range(self.TRACE_LEN)
        ]
        # Pass 1 warms caches (misses), 2 seeds ``_seen``, 3 records the
        # recipes, 4 compiles and applies the fused run.
        for _ in range(4):
            machine.run(trace)
        assert machine.fused_refs > 0, "hot trace never fused"
        return machine, trace

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("verb", sorted(VERB_CASES))
    def test_verb_splits_fused_run(self, model, verb):
        env = Env(model)
        call = VERB_CASES[verb](env)  # builder traps run before warming
        machine, trace = self._hot_machine(env)
        before = machine.fused_refs
        call()
        machine.run(trace)
        assert machine.fused_refs == before

    @pytest.mark.parametrize("verb", sorted(GROUP_CASES))
    def test_group_verb_splits_fused_run(self, verb):
        env = Env("pagegroup")
        call = GROUP_CASES[verb](env)
        machine, trace = self._hot_machine(env)
        before = machine.fused_refs
        call()
        machine.run(trace)
        assert machine.fused_refs == before

    @pytest.mark.parametrize("model", MODELS)
    def test_hot_replay_keeps_fusing_without_a_verb(self, model):
        """Control: no kernel entry, the next replay fuses end to end."""
        env = Env(model)
        machine, trace = self._hot_machine(env)
        before = machine.fused_refs
        machine.run(trace)
        assert machine.fused_refs == before + self.TRACE_LEN

    @staticmethod
    def _smp_env(model):
        """A two-CPU kernel with one domain on a populated segment."""
        from types import SimpleNamespace

        kernel = Kernel(model, n_frames=64, n_cpus=2)
        d1 = kernel.create_domain("d1")
        seg = kernel.create_segment("seg", 4, populate=True)
        kernel.attach(d1, seg, Rights.RW)
        return SimpleNamespace(kernel=kernel, d1=d1, seg=seg)

    @pytest.mark.parametrize("model", MODELS)
    def test_remote_verb_shootdown_splits_fused_run(self, model):
        """A verb on CPU 0 reaches CPU 1's fused runs over the bus.

        ``unmap_page`` broadcasts a *translation* shootdown on every
        model (rights-only verbs may legitimately skip the bus — e.g.
        the page-group model propagates rights through the group
        table), so it must kill the remote CPU's fused cache."""
        env = self._smp_env(model)
        machine, trace = self._hot_machine(env, cpu=env.kernel.cpus[1])
        before = machine.fused_refs
        env.kernel.set_current_cpu(0)
        env.kernel.unmap_page(env.seg.base_vpn)
        machine.run(trace)
        assert machine.fused_refs == before

    @pytest.mark.parametrize("model", MODELS)
    def test_direct_remote_bump_splits_fused_run(self, model):
        """``bump_epoch_for_cpu`` (the shootdown delivery primitive)
        invalidates the target CPU's fused cache even when the verb's
        own broadcast filtering would have skipped it."""
        env = self._smp_env(model)
        machine, trace = self._hot_machine(env, cpu=env.kernel.cpus[1])
        before = machine.fused_refs
        env.kernel.bump_epoch_for_cpu(1)
        machine.run(trace)
        assert machine.fused_refs == before

    @pytest.mark.parametrize("model", MODELS)
    def test_sampling_tracer_splits_remote_fused_run(self, model):
        """Attaching a sampling tracer on CPU 0 drops CPU 1's recipes:
        from then on every reference on every CPU opens its span."""
        from repro.obs.tracer import Tracer

        env = self._smp_env(model)
        machine, trace = self._hot_machine(env, cpu=env.kernel.cpus[1])
        before = machine.fused_refs
        env.kernel.set_current_cpu(0)
        tracer = Tracer(env.kernel.stats)
        env.kernel.attach_tracer(tracer)
        machine.run(trace)
        assert machine.fused_refs == before


class TestFaultSites:
    def test_injector_record_bumps_epoch(self):
        kernel = Kernel("plb")
        injector = FaultInjector(
            FaultPlan(events=(FaultEvent("disk", "transient_write", at=0),))
        )
        injector.arm(kernel)
        before = kernel.mutation_epoch
        with pytest.raises(HardwareFault):
            kernel.backing.write(0x10, b"boom")
        assert kernel.mutation_epoch > before
        injector.disarm()

    @pytest.mark.parametrize("model", MODELS)
    def test_clean_scrub_leaves_epoch_alone(self, model):
        """No repairs -> no invalidation: scrubbing is epoch-neutral."""
        env = Env(model)
        before = env.kernel.mutation_epoch
        assert Scrubber(env.kernel).scrub() == 0
        assert env.kernel.mutation_epoch == before

    def test_repairing_scrub_bumps_epoch(self):
        """A scrub that rewrites entries must invalidate the memo."""
        from repro.sim.machine import Machine

        env = Env("plb")
        machine = Machine(env.kernel)
        vaddr = env.kernel.params.vaddr(env.seg.base_vpn)
        machine.write(env.d1, vaddr)
        # Corrupt a PLB entry the touch installed, behind the kernel's
        # back (object mutation: no trap, no epoch bump).
        entries = [
            entry for key, entry in env.kernel.system.plb.items()
            if key.level == 0
        ]
        assert entries
        entries[0].rights = Rights.NONE
        before = env.kernel.mutation_epoch
        assert Scrubber(env.kernel).scrub() >= 1
        assert env.kernel.mutation_epoch > before
