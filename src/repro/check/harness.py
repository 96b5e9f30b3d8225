"""The kernel oracle: one lockstep harness over models, CPUs, shards and faults.

One op stream (:mod:`repro.check.ops`) is replayed through a kernel per
configured model and through the gold model (:mod:`repro.check.gold`).
Every op goes through one dispatcher: the Table 1 verbs call the kernel,
PageOut goes to a :class:`~repro.os.pager.UserLevelPager` created at the
first PageOut, and every reference runs through the workloads' own
fault-retry loop, :meth:`Machine.touch <repro.sim.machine.Machine.touch>`,
and so through the kernel's fault handlers (the pager's page-in, the
demand-zero fill), round-robin over ``n_cpus`` CPUs and ``n_shards``
authority shards.

One gate decides what is compared mid-run: is a fault plan armed?

* **No plan.**  Every reference is compared against gold: outcome, fault
  reason, page-fault flag, and physical address against that kernel's
  translation table.  Every model must hold each resident page in the
  same frame, and the structural invariants run every
  :data:`CHECK_EVERY` ops.
* **A plan.**  An injected fault may legitimately change a reference,
  so nothing is compared mid-run; the scrubber runs every
  :data:`CHECK_EVERY` ops instead.

At stream end, always: the pager drains; under a plan the injector is
disarmed and one last scrub runs; the invariants run (so a stale entry
reports as ``invariant``); and every (CPU, domain, page, read/write) is
swept against gold — outcome, reason and physical address.  A divergence
is ddmin-minimized and re-run with the span tracer attached, and dumps
as one replayable JSON document.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.summary import RECOVERY_COUNTERS
from repro.check import ops as opmod
from repro.check.gold import Expectation, GoldModel
from repro.check.invariants import check_invariants
from repro.core.mmu import PageFault, ProtectionFault
from repro.core.params import DEFAULT_PARAMS, MachineParams
from repro.core.rights import AccessType
from repro.faults.errors import HardwareFault
from repro.faults.plan import FaultInjector, FaultPlan
from repro.faults.scrub import Scrubber
from repro.os.kernel import MODELS, Kernel, KernelError, SegmentationViolation
from repro.os.pager import PagerError, UserLevelPager
from repro.sim.machine import FaultLoop, SMPMachine

#: Ops between mid-run checks: the structural invariants without a
#: plan, a scrub with one.
CHECK_EVERY = 16


@dataclass
class Divergence:
    """One model disagreeing with the gold model (or with itself)."""

    op_index: int
    op: opmod.Op | None
    model: str
    kind: str          # "outcome" | "paddr" | "invariant" | "state" | "unrecovered"
    expected: str
    observed: str

    def describe(self) -> str:
        return (
            f"op[{self.op_index}] {self.op}: model {self.model!r} {self.kind} "
            f"divergence — expected {self.expected}, observed {self.observed}"
        )


@dataclass
class CheckReport:
    """Outcome of one harness run."""

    divergence: Divergence | None
    ops_applied: int
    refs_checked: int

    @property
    def ok(self) -> bool:
        return self.divergence is None


class _DivergenceError(Exception):
    def __init__(self, divergence: Divergence) -> None:
        super().__init__(divergence.describe())
        self.divergence = divergence


class LockstepHarness:
    """Replays one op stream through N kernels + gold in lockstep."""

    def __init__(
        self,
        models: tuple[str, ...] = MODELS,
        *,
        scenario: opmod.ScenarioSpec,
        plan: FaultPlan | None = None,
        params: MachineParams = DEFAULT_PARAMS,
        n_frames: int = 256,
        n_cpus: int = 1,
        n_shards: int = 1,
    ) -> None:
        self.models = tuple(models)
        self.params = params
        self.plan = plan
        self.n_cpus = n_cpus
        self.gold = GoldModel(params=params)
        self.kernels = {
            model: Kernel(
                model,
                n_frames=n_frames,
                params=params,
                system_options=scenario.system_options(model),
                n_cpus=n_cpus,
                n_shards=n_shards,
            )
            for model in self.models
        }
        #: Each kernel's reference loop: one pinned machine per CPU.
        self.smps = {model: SMPMachine(kernel) for model, kernel in self.kernels.items()}
        self.injectors: dict[str, FaultInjector] = {}
        self.scrubbers: dict[str, Scrubber] = {}
        if plan is not None:
            for model, kernel in self.kernels.items():
                self.injectors[model] = FaultInjector(plan)
                self.injectors[model].arm(kernel)
                self.scrubbers[model] = Scrubber(kernel)
        self.pagers: dict[str, UserLevelPager] = {}
        self.domains: dict = {model: {} for model in self.models}
        self.segments: dict = {model: {} for model in self.models}
        self.tracers: dict = {}
        self.ops_applied = 0
        self.refs_checked = 0
        #: Round-robin cursor distributing references over the CPUs.
        self._next_cpu = 0

    def attach_tracers(self) -> None:
        """Trace every kernel (used when re-running a minimized repro)."""
        from repro.obs.tracer import Tracer

        for model, kernel in self.kernels.items():
            tracer = Tracer(kernel.stats)
            kernel.attach_tracer(tracer)
            self.tracers[model] = tracer

    def recovery(self) -> dict[str, dict[str, int]]:
        """Each model's nonzero ``RECOVERY_COUNTERS`` (models with none omitted)."""
        counts = {}
        for model, kernel in self.kernels.items():
            stats = kernel.merged_stats()
            nonzero = {name: stats.get(name, 0) for name in RECOVERY_COUNTERS}
            nonzero = {name: count for name, count in nonzero.items() if count}
            if nonzero:
                counts[model] = nonzero
        return counts

    # ------------------------------------------------------------------ #
    # Driving

    def run(self, ops: list) -> CheckReport:
        try:
            for index, op in enumerate(ops):
                for injector in self.injectors.values():
                    injector.tick(index)
                self._apply(index, op)
                self.ops_applied += 1
                if (index + 1) % CHECK_EVERY == 0:
                    if self.plan is None:
                        self._check_invariants(index, op)
                    else:
                        for scrubber in self.scrubbers.values():
                            scrubber.scrub()
            self._finish(len(ops), ops[-1] if ops else None)
        except _DivergenceError as error:
            return CheckReport(error.divergence, self.ops_applied, self.refs_checked)
        return CheckReport(None, self.ops_applied, self.refs_checked)

    def _finish(self, index: int, op) -> None:
        """Stream end: drain, disarm and scrub, invariants, then the sweep."""
        for vpn in sorted(self.gold.paged_out):
            self._apply(index, opmod.PageIn(vpn))
        for model, injector in self.injectors.items():
            injector.disarm()  # flushes delayed shootdowns, unhooks
            self.scrubbers[model].scrub()
        self._check_invariants(index, op)
        self._sweep(index, op)

    def _check_invariants(self, index: int, op) -> None:
        for model, kernel in self.kernels.items():
            problems = check_invariants(kernel)
            if problems:
                raise _DivergenceError(Divergence(
                    index, op, model, "invariant",
                    "structural coherence", "; ".join(problems[:4]),
                ))

    # ------------------------------------------------------------------ #
    # The op dispatcher

    def _apply(self, index: int, op) -> None:
        if not self.gold.validates(op):
            return
        if isinstance(op, opmod.Touch):
            self._touch(index, op)
            return
        made = {
            model: self._guard(index, op, model, self._verb, model, kernel, op)
            for model, kernel in self.kernels.items()
        }
        created = self.gold.apply(op)
        if isinstance(op, opmod.CreateDomain):
            self._same_ids(index, op, made, created)
        elif isinstance(op, opmod.CreateSegment):
            self._same_ids(index, op, made, (created.seg_id, created.base_vpn))
            if op.populate and self.plan is None:
                self._same_frames(index, op, range(created.base_vpn, created.end_vpn))
        elif isinstance(op, opmod.PageIn) and self.plan is None:
            self._same_frames(index, op, (op.vpn,))

    def _verb(self, model: str, kernel: Kernel, op):
        """Apply one non-reference op to one kernel; returns a created id."""
        domains, segments = self.domains[model], self.segments[model]
        if isinstance(op, opmod.CreateDomain):
            domain = kernel.create_domain(op.name)
            domains[domain.pd_id] = domain
            return domain.pd_id
        if isinstance(op, opmod.CreateSegment):
            segment = kernel.create_segment(op.name, op.n_pages, populate=op.populate)
            segments[segment.seg_id] = segment
            return (segment.seg_id, segment.base_vpn)
        if isinstance(op, opmod.Attach):
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
            self._pager(model).page_out(op.vpn)
        elif isinstance(op, opmod.PageIn):
            self._fault_in(kernel, op.vpn)
        elif isinstance(op, opmod.Switch):
            kernel.switch_to(domains[op.pd])
        elif isinstance(op, opmod.DestroySegment):
            kernel.destroy_segment(segments[op.seg])
        else:
            raise TypeError(f"unknown op {op!r}")
        return None

    def _pager(self, model: str) -> UserLevelPager:
        """The model's pager, created at the first PageOut.

        The pager creates a protection domain; created any earlier it
        would take the pd_id the gold model gives a scenario domain.
        """
        pager = self.pagers.get(model)
        if pager is None:
            pager = self.pagers[model] = UserLevelPager(self.kernels[model])
        return pager

    def _fault_in(self, kernel: Kernel, vpn: int) -> None:
        """Make a live page resident the way a reference would.

        The kernel's page-fault path does it: the pager pages in a page
        it holds, anything else gets the demand-zero fill.
        """
        if not kernel.translations.is_resident(vpn):
            kernel.handle_page_fault(PageFault(
                self.params.vaddr(vpn), kernel.system.current_domain, AccessType.READ
            ))

    def _guard(self, index: int, op, model: str, fn, *args):
        """Run one kernel step; a rejected gold-valid op or an unrecovered
        hardware fault is a divergence."""
        try:
            return fn(*args)
        except (KernelError, PagerError) as error:
            raise _DivergenceError(Divergence(
                index, op, model, "state", "gold-valid verb accepted",
                f"{type(error).__name__}: {error}",
            )) from error
        except HardwareFault as fault:
            raise _DivergenceError(Divergence(
                index, op, model, "unrecovered", "recovered execution",
                f"{type(fault).__name__}: {fault}",
            )) from fault

    def _same_ids(self, index: int, op, made: dict, expected) -> None:
        for model, got in made.items():
            if got != expected:
                raise _DivergenceError(Divergence(
                    index, op, model, "state", f"id {expected}", f"id {got}"
                ))

    def _same_frames(self, index: int, op, vpns) -> None:
        """Every model must hold each resident page in the same frame."""
        for vpn in vpns:
            frames = {
                model: kernel.translations.pfn_for(vpn)
                for model, kernel in self.kernels.items()
            }
            distinct = set(frames.values())
            if len(distinct) > 1 or None in distinct:
                raise _DivergenceError(Divergence(
                    index, op, "*", "paddr",
                    f"one frame for vpn {vpn:#x}", f"frames {frames}",
                ))

    # ------------------------------------------------------------------ #
    # References

    def _touch(self, index: int, op: opmod.Touch) -> None:
        vpn = self.params.vpn(op.vaddr)
        cpu = self._next_cpu
        self._next_cpu = (cpu + 1) % self.n_cpus
        for model, kernel in self.kernels.items():
            observed, paddr = self._reference(index, op, model, cpu, op.pd, op.vaddr, op.access)
            if self.plan is None:
                want = self.gold.expect(model, op.pd, vpn, op.access)
                self._compare(index, op, model, "", want, observed, paddr, op.vaddr)
        self.refs_checked += 1
        # Canonical residency: a touch of a live page leaves it resident
        # in gold; fault it in on a kernel that never translated it
        # (e.g. a PLB protection denial).
        if self.gold.live_segment_at(vpn) is not None:
            for model, kernel in self.kernels.items():
                self._guard(index, op, model, self._fault_in, kernel, vpn)
            if self.plan is None:
                self._same_frames(index, op, (vpn,))
        self.gold.apply(op)

    def _reference(self, index: int, op, model: str, cpu: int, pd: int, vaddr: int, access):
        """One reference by domain ``pd`` on ``cpu`` of one kernel, run
        through :meth:`SMPMachine.touch_on`; returns (outcome, paddr).

        The outcome's page-fault flag records that a handled fault came
        first: a page fault, or a protection fault the pager resolved by
        paging the page in (the only protection handler installed).
        """
        kernel = self.kernels[model]
        stats = kernel.stats
        faults = stats["kernel.fault.protection"] + stats["kernel.fault.page"]
        try:
            result = self._guard(
                index, op, model, self.smps[model].touch_on,
                cpu, self.domains[model][pd], vaddr, access,
            )
        except FaultLoop:
            return Expectation("stuck", page_fault=True), None
        except SegmentationViolation as violation:
            fault = violation.__cause__
            if not isinstance(fault, ProtectionFault):
                return Expectation("fatal", page_fault=True), None
            # The unclaimed fault is the last one delivered; any earlier
            # one was handled.
            faults = stats["kernel.fault.protection"] + stats["kernel.fault.page"] - faults
            return Expectation("prot", fault.reason.value, page_fault=faults > 1), None
        return Expectation("allowed", page_fault=result.faulted), kernel.system.paddr

    def _compare(
        self, index: int, op, model: str, where: str,
        want: Expectation, observed: Expectation, paddr: int | None, vaddr: int,
    ) -> None:
        """Outcome, reason and flag against gold; paddr against the
        kernel's own translation table."""
        if observed != want:
            raise _DivergenceError(Divergence(
                index, op, model, "outcome",
                where + want.describe(), observed.describe(),
            ))
        if observed.kind != "allowed" or paddr is None:
            return
        pfn = self.kernels[model].translations.pfn_for(self.params.vpn(vaddr))
        if pfn is None:
            raise _DivergenceError(Divergence(
                index, op, model, "paddr", where + "a resident translation", f"{paddr:#x}"
            ))
        want_paddr = self.params.vaddr(pfn, self.params.page_offset(vaddr))
        if paddr != want_paddr:
            raise _DivergenceError(Divergence(
                index, op, model, "paddr", f"{where}{want_paddr:#x}", f"{paddr:#x}"
            ))

    def _sweep(self, index: int, op) -> None:
        """Every (CPU, domain, page, access) outcome against gold.

        Residency timing differs once faults and the pager are in play,
        so the page-fault flag is not compared here; the physical address
        is, against each kernel's own translation table, which catches a
        stale translation that survived the run.
        """
        for cpu in range(self.n_cpus):
            prefix = f"end-state cpu{cpu} " if self.n_cpus > 1 else "end-state "
            for pd in sorted(self.gold.domains):
                for seg in self.gold.segments.values():
                    for vpn in range(seg.base_vpn, seg.end_vpn):
                        vaddr = self.params.vaddr(vpn)
                        for access in (AccessType.READ, AccessType.WRITE):
                            where = f"{prefix}pd {pd} vpn {vpn:#x} {access.value}: "
                            for model in self.kernels:
                                observed, paddr = self._reference(
                                    index, op, model, cpu, pd, vaddr, access
                                )
                                want = self.gold.expect(model, pd, vpn, access)
                                self._compare(
                                    index, op, model, where,
                                    Expectation(want.kind, want.reason),
                                    Expectation(observed.kind, observed.reason),
                                    paddr, vaddr,
                                )
                            self.refs_checked += 1


# --------------------------------------------------------------------- #
# Minimization and the top-level entry point


def minimize_ops(harness_factory, ops: list) -> list:
    """Shrink an op list while it still produces a divergence.

    One descending-chunk ddmin pass: repeatedly try dropping blocks of
    halving size, keeping any candidate that still diverges.  Each probe
    replays a fresh harness, which is cheap at fuzzing scale (hundreds
    of ops over tiny structures).
    """
    def diverges(candidate: list) -> bool:
        return not harness_factory().run(candidate).ok

    current = list(ops)
    chunk = max(1, len(current) // 2)
    while chunk >= 1:
        index = 0
        while index < len(current):
            candidate = current[:index] + current[index + chunk:]
            if candidate and diverges(candidate):
                current = candidate
            else:
                index += chunk
        chunk //= 2
    return current


def _span_trail(harness: LockstepHarness, model: str, limit: int = 25) -> list[str]:
    """The tail of the model's span stream (the trail into the failure)."""
    tracer = harness.tracers.get(model)
    if tracer is None:
        return []
    flattened = []
    for root in tracer.finish():
        for span in root.walk():
            attrs = ", ".join(f"{k}={v}" for k, v in span.attrs.items())
            flattened.append(f"{'  ' * span.depth}{span.name}({attrs})")
    return flattened[-limit:]


@dataclass
class CheckRunResult:
    """One seed's oracle verdict, plus the repro dump on failure."""

    scenario: str
    seed: int
    models: tuple
    ok: bool
    ops_total: int
    refs_checked: int
    n_cpus: int = 1
    plan: FaultPlan | None = None
    #: Each model's nonzero recovery counters.
    counters: dict = field(default_factory=dict)
    divergence: Divergence | None = None
    minimized: list = field(default_factory=list)
    span_trail: list = field(default_factory=list)

    def dump(self) -> dict:
        """The repro as a plain JSON-able dict.

        ``python -m repro replay <this file>`` runs the minimized ``ops``
        again on the same models, CPUs and plan; ``python -m repro check
        <scenario> --models <models> --seed <seed> --ops <n_ops> --cpus
        <n_cpus> --plan <this file>`` re-arms the plan on the full stream.
        """
        assert self.divergence is not None
        d = self.divergence
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "models": list(self.models),
            "n_ops": self.ops_total,
            "n_cpus": self.n_cpus,
            "plan": self.plan.to_dict() if self.plan is not None else None,
            "divergence": {
                "op_index": d.op_index,
                "op": d.op.to_dict() if isinstance(d.op, opmod.Op) else None,
                "model": d.model,
                "kind": d.kind,
                "expected": d.expected,
                "observed": d.observed,
            },
            "ops": [op.to_dict() for op in self.minimized],
            "counters": self.counters,
            "span_trail": self.span_trail,
        }


def run_check(
    scenario_name: str,
    seed: int,
    models: tuple[str, ...] = MODELS,
    *,
    n_ops: int = 250,
    plan: FaultPlan | str | None = None,
    n_cpus: int = 1,
    n_shards: int = 1,
    minimize: bool = True,
) -> CheckRunResult:
    """Generate, replay and (on divergence) minimize one seed's stream.

    ``plan`` is a :class:`FaultPlan`, a preset name (generated from
    ``seed`` and ``n_ops``) or None.
    """
    spec = opmod.SCENARIOS[scenario_name]
    ops = opmod.generate_ops(spec, seed, n_ops)
    if isinstance(plan, str):
        plan = FaultPlan.generate(plan, seed, n_ops)

    def factory() -> LockstepHarness:
        return LockstepHarness(
            models, scenario=spec, plan=plan, n_cpus=n_cpus, n_shards=n_shards
        )

    harness = factory()
    report = harness.run(ops)
    result = CheckRunResult(
        scenario=scenario_name, seed=seed, models=tuple(models),
        ok=report.ok, ops_total=len(ops), refs_checked=report.refs_checked,
        n_cpus=n_cpus, plan=plan, counters=harness.recovery(),
    )
    if report.ok:
        return result
    minimized = ops[: report.divergence.op_index + 1]
    if minimize:
        minimized = minimize_ops(factory, minimized)
    # Re-run the minimized stream traced, to capture the span trail the
    # divergent model followed into the failure.
    traced = factory()
    traced.attach_tracers()
    result.divergence = traced.run(minimized).divergence or report.divergence
    model = result.divergence.model
    result.minimized = minimized
    result.span_trail = _span_trail(traced, model if model in traced.tracers else models[0])
    return result
