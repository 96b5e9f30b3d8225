"""Cluster chaos: kill a node or cut a link at every protocol step.

The kernel oracle (:mod:`repro.check.harness`) checks that each
model's kernel converges to the gold protection state after injected
hardware faults.  This module is its cluster-scope sibling: a scripted
workload drives page traffic across a :class:`~repro.cluster.dsm.ClusterDSM`
while a :class:`~repro.cluster.faults.ClusterInjector` disrupts the
interconnect, and the end state is audited against a
:class:`GoldCluster` — a tiny oracle that tracks, per shared page, what
stamp values a correct protocol is *allowed* to expose after the dust
settles.

The oracle is honest about the one genuinely ambiguous race: when an
exclusive owner crashes, a fetch that raced the crash may have carried
the owner's last (never-flushed) write to a survivor, or recovery may
have restored the older durable image — **both** are legal, so the
page's allowed-set temporarily holds two stamps, collapsing back to one
on the next successful write.  Everything else is exact: losing a write
that was *flushed*, resurrecting a stamp that was overwritten, or two
live nodes disagreeing at the end is a divergence.

:func:`run_cluster_sweep` is the exhaustive form of the question "does
recovery work?": it measures a fault-free run's message count, then
re-runs the same scenario once per (message index x fault kind x
model), crashing the destination node or cutting the link that message
was crossing.  Every case must converge to a gold-legal state or report
an explicit ``unrecoverable`` verdict with a replayable JSON dump —
silent divergence is the only failure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.check.invariants import check_invariants
from repro.cluster.dsm import ClusterDSM
from repro.cluster.faults import ClusterInjector
from repro.cluster.node import stamp_page
from repro.core.rights import AccessType
from repro.faults.errors import ClusterUnavailableError, HardwareFault
from repro.faults.plan import FaultEvent, FaultPlan
from repro.os.kernel import MODELS, SegmentationViolation

#: Verdicts a cluster chaos case can reach.  ``converged`` and
#: ``unrecoverable`` both pass a sweep (the second is an *explicit*
#: admission, dumped with a repro); only ``diverged`` fails it.
VERDICTS = ("converged", "unrecoverable", "diverged")


class GoldPage:
    """Oracle state for one shared page's stamp lineage."""

    __slots__ = ("owner", "dirty", "content", "durable", "allowed")

    def __init__(self) -> None:
        self.owner: int | None = 0
        self.dirty = False
        self.content = 0   # the stamp the current owner's image carries
        self.durable = 0   # the stamp the home store carries
        self.allowed: set[int] = {0}

    def snapshot(self) -> dict:
        return {
            "owner": self.owner,
            "dirty": self.dirty,
            "content": self.content,
            "durable": self.durable,
            "allowed": sorted(self.allowed),
        }


class GoldCluster:
    """What stamps a correct cluster may expose, per page.

    Mirrors the protocol's durability contract without simulating the
    protocol: demote-at-source means any access that pulls a page away
    from a dirty exclusive owner syncs the home store first, so the
    oracle folds ``content`` into ``durable`` on every cross-node
    access, on every flush, and keeps *both* candidates when the owner
    crashes with unflushed writes.
    """

    def __init__(self, vpns) -> None:
        self.pages = {vpn: GoldPage() for vpn in vpns}

    def write(self, node_id: int, vpn: int, stamp: int) -> None:
        page = self.pages[vpn]
        if page.owner is not None and page.owner != node_id and page.dirty:
            # Acquiring from a dirty owner demotes it: home synced.
            page.durable = page.content
        page.owner = node_id
        page.content = stamp
        page.dirty = True
        page.allowed = {stamp}

    def read(self, node_id: int, vpn: int) -> None:
        page = self.pages[vpn]
        if page.owner is not None and page.owner != node_id and page.dirty:
            page.durable = page.content
            page.dirty = False

    def flush(self, vpn: int) -> None:
        page = self.pages[vpn]
        page.durable = page.content
        page.dirty = False

    def crash(self, node_id: int) -> None:
        """The injected-crash callback (ground truth, pre-detection)."""
        for page in self.pages.values():
            if page.owner != node_id:
                continue
            # The owner's unflushed image may or may not have escaped
            # (a fetch can race the crash); both stamps are now legal.
            page.allowed = {page.content, page.durable}
            page.content = page.durable
            page.dirty = False
            page.owner = None


@dataclass
class ClusterChaosResult:
    """One cluster chaos case's verdict plus its replayable repro."""

    model: str
    seed: int
    verdict: str
    plan: FaultPlan | None
    nodes: int
    pages: int
    accesses: int
    tick_every: int
    n_cpus: int
    messages: int
    detail: str = ""
    counters: dict = field(default_factory=dict)
    recovery_cycles: list = field(default_factory=list)
    #: Final interconnect virtual clock — total wire/timeout cycles the
    #: run spent; what per-node message coalescing reduces.
    interconnect_cycles: int = 0

    @property
    def ok(self) -> bool:
        return self.verdict != "diverged"

    def dump(self) -> dict:
        """A JSON-able repro; replay with ``python -m repro cluster
        --models <model> --seed <seed> ... --plan <file>``."""
        return {
            "scenario": "cluster",
            "model": self.model,
            "seed": self.seed,
            "verdict": self.verdict,
            "detail": self.detail,
            "nodes": self.nodes,
            "pages": self.pages,
            "accesses": self.accesses,
            "tick_every": self.tick_every,
            "n_cpus": self.n_cpus,
            "messages": self.messages,
            "plan": self.plan.to_dict() if self.plan is not None else None,
            "counters": self.counters,
            "recovery_cycles": list(self.recovery_cycles),
            "interconnect_cycles": self.interconnect_cycles,
        }


def _script(seed: int, nodes: int, vpns, accesses: int):
    """The deterministic access script: (node, vpn, access) triples."""
    rng = random.Random(f"cluster:{seed}")
    vpns = list(vpns)
    ops = []
    for _ in range(accesses):
        ops.append((
            rng.randrange(nodes),
            rng.choice(vpns),
            AccessType.WRITE if rng.random() < 0.5 else AccessType.READ,
        ))
    return ops


def run_cluster_case(
    model: str,
    seed: int,
    *,
    nodes: int = 3,
    pages: int = 6,
    accesses: int = 48,
    tick_every: int = 8,
    plan: FaultPlan | None = None,
    n_cpus: int = 1,
    rejoin: bool = True,
) -> ClusterChaosResult:
    """One scripted cluster run under ``plan``, audited against gold."""
    cluster = ClusterDSM(
        model, nodes=nodes, pages=pages, seed=seed, n_cpus=n_cpus
    )
    gold = GoldCluster(cluster.vpns)
    cluster.on_crash = gold.crash
    injector = ClusterInjector(plan) if plan is not None else None
    if injector is not None:
        injector.arm(cluster)
    psize = cluster.params.page_size

    protocol_messages: list[int] = []

    def result(verdict: str, detail: str = "") -> ClusterChaosResult:
        counters = {
            name: count
            for name, count in cluster.merged_stats().items()
            if name.startswith(("cluster.", "faults."))
        }
        messages = (
            protocol_messages[0]
            if protocol_messages
            else cluster.net.msg_index
        )
        return ClusterChaosResult(
            model=model, seed=seed, verdict=verdict, plan=plan,
            nodes=nodes, pages=pages, accesses=accesses,
            tick_every=tick_every, n_cpus=n_cpus,
            messages=messages, detail=detail,
            counters=counters,
            recovery_cycles=list(cluster.recovery_cycles),
            interconnect_cycles=cluster.net.clock,
        )

    try:
        _drive(cluster, gold, seed, accesses, tick_every, psize)
        _settle(cluster, gold, rejoin=rejoin)
    except ClusterUnavailableError as error:
        return result("unrecoverable", f"{type(error).__name__}: {error}")
    finally:
        # The audit must observe, not take new faults: disarm before
        # verification (same contract as the kernel harness's sweep).
        # ``messages`` records the faultable span — the sweep's step
        # range — not the audit's own traffic.
        protocol_messages.append(cluster.net.msg_index)
        if injector is not None:
            injector.disarm()
    if cluster.split_brain_risk:
        # A node was declared dead while actually running: the cluster
        # fenced it out safely, but the verdict must say so out loud.
        return result(
            "unrecoverable",
            "split-brain declaration (live node fenced as dead)",
        )
    divergence = _audit(cluster, gold)
    if divergence is not None:
        return result("diverged", divergence)
    return result("converged")


def _drive(cluster, gold, seed, accesses, tick_every, psize) -> None:
    ops = _script(seed, len(cluster.nodes), cluster.vpns, accesses)
    for i, (nid, vpn, access) in enumerate(ops):
        if i and i % tick_every == 0:
            for flushed in cluster.tick():
                gold.flush(flushed)
        node = cluster.nodes.get(nid)
        if node is None or not node.alive or nid in cluster.net.crashed:
            continue  # a dead machine runs nothing
        addr = cluster.params.vaddr(vpn)
        try:
            # Shard-home routing: the touch runs on the page's home CPU
            # (CPU 0 always, on a single-CPU node), so M>1 sweeps
            # exercise every CPU's protection caches.
            node.touch_home(addr, access)
        except (SegmentationViolation, HardwareFault):
            # The access aborted (timeout mid-recovery etc.); by the
            # commit-phase-last rule it mutated nothing the oracle
            # tracks, so gold is not updated either.
            cluster.stats.inc("cluster.chaos.aborted")
            continue
        if access is AccessType.WRITE:
            node.write_page(vpn, stamp_page(psize, i + 1))
            gold.write(nid, vpn, i + 1)
        else:
            gold.read(nid, vpn)


def _settle(cluster, gold, *, rejoin: bool) -> None:
    """Drain: heal links, detect stragglers, flush, rejoin, reconcile."""
    cluster.heal_all()
    # Enough pulses for the heartbeat detector to declare any
    # undetected crash dead (MISS_LIMIT consecutive silences).
    for _ in range(3):
        for flushed in cluster.tick():
            gold.flush(flushed)
    if rejoin:
        for node_id in sorted(cluster.dead):
            cluster.rejoin(node_id)
    cluster.reconcile()
    for flushed in cluster.tick():
        gold.flush(flushed)


def _audit(cluster, gold) -> str | None:
    """Gold-legality + agreement + invariants; None when clean."""
    live = set(cluster.live)
    actors = cluster._actors()
    if not actors:
        return "no live nodes to audit"
    for vpn in cluster.vpns:
        page = gold.pages[vpn]
        stamps = {}
        for node in actors:
            addr = cluster.params.vaddr(vpn)
            try:
                node.machine.read(node.domain, addr)
            except (SegmentationViolation, HardwareFault):
                # One repair pass, then the read must succeed.
                cluster.reconcile()
                try:
                    node.machine.read(node.domain, addr)
                except (SegmentationViolation, HardwareFault) as error:
                    return (
                        f"node {node.node_id} cannot read page {vpn:#x} "
                        f"after reconcile: {type(error).__name__}"
                    )
            stamps[node.node_id] = node.stamp(vpn)
        values = set(stamps.values())
        if len(values) != 1:
            return (
                f"page {vpn:#x}: live nodes disagree {stamps} "
                f"(gold {page.snapshot()})"
            )
        value = values.pop()
        if value not in page.allowed:
            return (
                f"page {vpn:#x}: stamp {value} not in allowed "
                f"{sorted(page.allowed)} (gold {page.snapshot()})"
            )
        entry = cluster.directory[vpn]
        if entry.owner not in live:
            return f"page {vpn:#x}: directory owner {entry.owner} is dead"
        if not entry.copyset <= live:
            return (
                f"page {vpn:#x}: copyset {sorted(entry.copyset)} includes "
                f"dead nodes (live {sorted(live)})"
            )
    for node in actors:
        problems = check_invariants(node.kernel)
        if problems:
            return f"node {node.node_id}: {'; '.join(problems[:3])}"
    return None


# --------------------------------------------------------------------- #
# The sweep: one fault at every protocol step


@dataclass
class ClusterSweepResult:
    """Every (step x kind x model) verdict from one sweep."""

    cases: int = 0
    converged: int = 0
    unrecoverable: int = 0
    baseline_messages: dict = field(default_factory=dict)
    diverged: list = field(default_factory=list)
    unrecoverable_cases: list = field(default_factory=list)
    #: model -> every declare-dead episode's measured recovery time
    #: (interconnect cycles), pooled across the sweep's cases.
    recovery_cycles: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.diverged

    def dump(self) -> dict:
        return {
            "cases": self.cases,
            "converged": self.converged,
            "unrecoverable": self.unrecoverable,
            "baseline_messages": dict(self.baseline_messages),
            "diverged": [r.dump() for r in self.diverged],
            "unrecoverable_cases": [
                {
                    "model": r.model,
                    "plan": r.plan.to_dict() if r.plan else None,
                    "detail": r.detail,
                }
                for r in self.unrecoverable_cases
            ],
        }


def run_cluster_sweep(
    models: tuple[str, ...] = MODELS,
    *,
    seed: int = 7,
    nodes: int = 3,
    pages: int = 4,
    accesses: int = 32,
    tick_every: int = 8,
    kinds: tuple[str, ...] = ("node_crash", "partition"),
    stride: int = 1,
    max_steps: int | None = None,
    n_cpus: int = 1,
) -> ClusterSweepResult:
    """Inject one fault at every protocol step; demand a clean verdict.

    For each model, a fault-free baseline counts the interconnect's
    messages; then each selected message index becomes a case per fault
    kind: the node the message targets dies, or the link it crosses is
    cut, at exactly that step.  ``stride`` and ``max_steps`` thin the
    step set for smoke-test budgets — thinning is *reported* in the
    result (``baseline_messages`` vs ``cases``), never silent.
    """
    result = ClusterSweepResult()
    for model in models:
        baseline = run_cluster_case(
            model, seed, nodes=nodes, pages=pages, accesses=accesses,
            tick_every=tick_every, n_cpus=n_cpus,
        )
        if baseline.verdict != "converged":
            result.diverged.append(baseline)
            continue
        result.baseline_messages[model] = baseline.messages
        steps = list(range(0, baseline.messages, max(1, stride)))
        if max_steps is not None and len(steps) > max_steps:
            # Evenly thin, keeping first and last.
            picked = [
                steps[round(i * (len(steps) - 1) / (max_steps - 1))]
                for i in range(max_steps)
            ]
            steps = sorted(set(picked))
        for step in steps:
            for kind in kinds:
                events = [FaultEvent("cluster", kind, at=step)]
                if kind == "partition":
                    # The case driver heals in its drain phase, but a
                    # late heal event also exercises the injector path.
                    events.append(
                        FaultEvent("cluster", "heal", at=step * 4 + 64)
                    )
                plan = FaultPlan(
                    events=tuple(events), seed=seed,
                    name=f"cluster-{kind}@{step}",
                )
                case = run_cluster_case(
                    model, seed, nodes=nodes, pages=pages,
                    accesses=accesses, tick_every=tick_every,
                    plan=plan, n_cpus=n_cpus,
                )
                result.cases += 1
                if case.recovery_cycles:
                    result.recovery_cycles.setdefault(model, []).extend(
                        case.recovery_cycles
                    )
                if case.verdict == "converged":
                    result.converged += 1
                elif case.verdict == "unrecoverable":
                    result.unrecoverable += 1
                    result.unrecoverable_cases.append(case)
                else:
                    result.diverged.append(case)
    return result
