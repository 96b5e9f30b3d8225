"""§4.1.3 multiprocessor consistency costs, measured on the shootdown bus.

The paper's multiprocessor argument is about *translation/protection
consistency*: when a rights change or unmap happens on one CPU, how many
remote structures must be touched before the system is coherent again?

* **PLB** — the change is made to the PLB entries naming the page; a
  rights change on a shared page costs one interprocessor message per
  remote CPU, regardless of how many domains share the page.
* **Page-group** — the shared page lives in one AID-tagged TLB entry per
  CPU, so again one message per remote CPU.
* **Conventional** — the page is replicated into every sharing domain's
  page table and cached under every sharing ASID, so a global rights
  change costs one invalidation per *sharing domain* per remote CPU.

Three experiments stage that scenario — ``n_domains`` domains sharing
one segment, every CPU warmed under every domain — with one helper, and
cost each operation with one :func:`probe` into one :class:`Cost`.  Each
declares its contract once, as the ``problems`` on its result, which
``repro smp``, ``repro cluster``, the benches and
``tools/check_bench_regression.py`` read instead of restating it:

* :func:`consistency_table` — each Table 1 verb once; rights-change
  messages ordered PLB ≤ page-group ≤ conventional.
* :func:`batched_table` — three K-page verbs on twin kernels, range
  shootdowns against the legacy per-page bus; the same clean end state,
  and K times the messages for the same entries on the legacy twin.
* :func:`cluster_smp_table` — one K-page DSM write over N nodes × M
  CPUs; every IPI a batch, one request/reply pair per holder node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

from repro.analysis.report import format_table
from repro.check.invariants import check_invariants
from repro.core.costs import DEFAULT_COSTS
from repro.core.rights import Rights
from repro.os.kernel import MODELS, Kernel
from repro.sim.machine import SMPMachine

#: Verb labels, in table row order.
VERB_ALL_DOMAINS = "rights change (all domains, one page)"
VERB_ONE_DOMAIN = "rights change (one domain, one page)"
VERB_UNMAP = "unmap page"
VERB_DETACH = "detach segment (one domain)"
VERBS: tuple[str, ...] = (VERB_ALL_DOMAINS, VERB_ONE_DOMAIN, VERB_UNMAP, VERB_DETACH)


class Cost(NamedTuple):
    """The consistency traffic one operation generated.

    ``msgs`` counts interprocessor shootdown messages (IPIs) and
    ``entries`` the hardware entries they invalidated or updated on
    remote CPUs.  ``batches`` counts the messages that carried a
    multi-page range, ``cycles`` prices the shootdown traffic, and
    ``wire`` counts interconnect messages (requests and replies; zero
    on a single machine).
    """

    msgs: int
    entries: int
    batches: int
    cycles: int
    wire: int

    def render(self, *fields: str) -> str:
        """The named fields, ``" / "``-separated, for a table cell."""
        return " / ".join(str(getattr(self, name)) for name in fields)


class Report(NamedTuple):
    """One rendered experiment and the contract problems it found."""

    text: str
    problems: list[str]


def probe(system, op: Callable[[], object]) -> Cost:
    """Run ``op`` and cost it from one ``system.merged_stats()`` delta.

    ``system`` is a :class:`Kernel` or a ``ClusterDSM``, whose one
    store every node's kernel charges.
    """
    before = system.merged_stats()
    op()
    delta = system.merged_stats().delta(before)

    def both(counter: str) -> int:
        return delta[f"smp.shootdown.{counter}"] + delta[f"smp.tlb_shootdown.{counter}"]

    return Cost(
        msgs=both("msgs"),
        entries=both("entries"),
        batches=both("batches"),
        cycles=sum(
            count * DEFAULT_COSTS.weight_for(name)
            for name, count in delta.as_dict().items()
            if "shootdown" in name
        ),
        wire=delta["cluster.msg.sent"],
    )


def _warm(smp: SMPMachine, domains, vpns) -> None:
    """Reference every page under every domain on every CPU, then switch
    to CPU 0, the paper's "processor making the change"."""
    kernel = smp.kernel
    vpns = list(vpns)
    for cpu in range(kernel.n_cpus):
        for domain in domains:
            for vpn in vpns:
                smp.touch_on(cpu, domain, kernel.params.vaddr(vpn))
    kernel.set_current_cpu(0)


def _stage(
    model: str, *, n_cpus: int, n_domains: int, pages: int, n_frames: int, n_shards=1
):
    """``n_domains`` domains sharing one ``pages``-page segment read-write,
    warmed on every CPU: each CPU's hardware then holds whatever its
    model caches for the sharing set (D PLB entries, one AID-tagged
    entry, or D ASID-tagged entries per page)."""
    kernel = Kernel(model, n_frames=n_frames, n_cpus=n_cpus, n_shards=n_shards)
    domains = [kernel.create_domain(f"node{i}") for i in range(n_domains)]
    shared = kernel.create_segment("shared", pages)
    for domain in domains:
        kernel.attach(domain, shared, Rights.RW)
    _warm(SMPMachine(kernel), domains, shared.vpns())
    return kernel, domains, shared


# --------------------------------------------------------------------- #
# One page per Table 1 verb


@dataclass
class ConsistencyResult:
    """One model's measured remote costs for every verb."""

    model: str
    n_cpus: int
    n_domains: int
    costs: dict[str, Cost]

    @property
    def rights_change_msgs(self) -> int:
        """The headline: remote messages for a shared-page rights change."""
        return self.costs[VERB_ALL_DOMAINS].msgs


def measure_model(
    model: str,
    *,
    n_cpus: int = 4,
    n_domains: int = 4,
    pages: int = 8,
    n_frames: int = 256,
) -> ConsistencyResult:
    """Measure one model's remote shootdown costs in the §4.1.3 scenario.

    Each verb runs once, on CPU 0, against its own page so the
    measurements do not disturb each other.
    """
    if pages < 4:
        raise ValueError("the scenario needs at least 4 pages (one per verb)")
    if n_domains < 2:
        raise ValueError("the scenario needs at least 2 domains sharing its segment")
    kernel, domains, shared = _stage(
        model, n_cpus=n_cpus, n_domains=n_domains, pages=pages, n_frames=n_frames
    )
    base = shared.base_vpn
    verbs = {
        VERB_ALL_DOMAINS: lambda: kernel.set_rights_all_domains(base, Rights.READ),
        VERB_ONE_DOMAIN: lambda: kernel.set_page_rights(
            domains[1], base + 1, Rights.READ
        ),
        VERB_UNMAP: lambda: kernel.unmap_page(base + 2),
        VERB_DETACH: lambda: kernel.detach(domains[-1], shared),
    }
    costs = {verb: probe(kernel, op) for verb, op in verbs.items()}
    return ConsistencyResult(model, n_cpus, n_domains, costs)


def measure_all(
    models: Sequence[str] = MODELS,
    *,
    n_cpus: int = 4,
    n_domains: int = 4,
    pages: int = 8,
    n_frames: int = 256,
) -> dict[str, ConsistencyResult]:
    """Measure every requested model on identical inputs."""
    return {
        model: measure_model(
            model, n_cpus=n_cpus, n_domains=n_domains, pages=pages, n_frames=n_frames
        )
        for model in models
    }


def consistency_table(
    models: Sequence[str] = MODELS,
    *,
    n_cpus: int = 4,
    n_domains: int = 4,
    pages: int = 8,
    n_frames: int = 256,
) -> Report:
    """The §4.1.3 comparison, rendered: remote msgs/entries per verb.

    Its contract: rights-change messages never fall from one model to
    the next in :data:`MODELS` order (plb, pagegroup, conventional).
    """
    results = measure_all(
        models, n_cpus=n_cpus, n_domains=n_domains, pages=pages, n_frames=n_frames
    )
    headers = ["verb (on CPU 0)"] + [f"{m} (msgs/entries)" for m in results]
    rows = [
        [verb]
        + [results[model].costs[verb].render("msgs", "entries") for model in results]
        for verb in VERBS
    ]
    table = format_table(
        headers,
        rows,
        title=(
            f"§4.1.3 consistency: remote shootdown traffic "
            f"({n_cpus} CPUs, {n_domains} domains sharing one segment)"
        ),
    )
    headline = ", ".join(
        f"{model}={result.rights_change_msgs}" for model, result in results.items()
    )
    ordered = sorted(results.values(), key=lambda result: MODELS.index(result.model))
    problems = [
        f"rights-change msgs out of the paper's order: "
        f"{low.model}={low.rights_change_msgs} > "
        f"{high.model}={high.rights_change_msgs}"
        for low, high in zip(ordered, ordered[1:])
        if low.rights_change_msgs > high.rights_change_msgs
    ]
    text = (
        table
        + "\n\nRemote invalidation messages per shared-page rights change: "
        + headline
        + "\n(paper ordering: plb <= pagegroup <= conventional)"
    )
    return Report(text, problems)


# --------------------------------------------------------------------- #
# Batched (range) shootdowns: the §4.1.3 costs per *verb*, not per page

#: Batched-table verb labels, in row order.
BATCH_VERB_RIGHTS = "rights change (all domains, K pages)"
BATCH_VERB_MOVE = "move K pages to a group"
BATCH_VERB_UNMAP = "unmap K pages"
BATCH_VERBS: tuple[str, ...] = (BATCH_VERB_RIGHTS, BATCH_VERB_MOVE, BATCH_VERB_UNMAP)


@dataclass
class BatchedResult:
    """One model's group-verb workload, measured batched and legacy.

    ``end_state_ok`` is the differential check: after both runs, the
    batched and legacy kernels must expose identical protection state
    (authority rights per domain-page, residency, group placement) and
    both must pass the structural cache-coherence invariants on every
    CPU — a batched invalidation that missed a CPU would leave a stale
    entry the invariant sweep names.
    """

    model: str
    n_cpus: int
    pages: int
    batched: dict[str, Cost]
    legacy: dict[str, Cost]
    end_state_ok: bool
    problems: list[str]

    @property
    def workload_msgs(self) -> tuple[int, int]:
        """(batched, legacy) total remote messages over the workload."""
        return (
            sum(cost.msgs for cost in self.batched.values()),
            sum(cost.msgs for cost in self.legacy.values()),
        )


def _run_group_verbs(kernel, domains, shared, k: int) -> dict[str, Cost]:
    """The group-verb workload: three K-page verbs on disjoint pages."""
    vpns = list(shared.vpns())
    costs = {
        BATCH_VERB_RIGHTS: probe(
            kernel, lambda: kernel.set_pages_rights_all_domains(vpns[:k], Rights.READ)
        )
    }
    if kernel.model == "pagegroup":
        group = kernel.create_page_group()
        for domain in domains:
            kernel.grant_group(domain, group)
        costs[BATCH_VERB_MOVE] = probe(
            kernel,
            lambda: kernel.move_pages_to_group(
                vpns[k : 2 * k], group, rights=Rights.READ
            ),
        )
    costs[BATCH_VERB_UNMAP] = probe(
        kernel, lambda: kernel.unmap_pages(vpns[2 * k : 3 * k])
    )
    return costs


def _protection_end_state(kernel, domains, shared) -> dict:
    """The authority-level protection facts a differential compare pins."""
    state: dict = {}
    for vpn in shared.vpns():
        state[("resident", vpn)] = kernel.page_resident(vpn)
        state[("group", vpn)] = kernel.page_info(vpn)
        for domain in domains:
            info = kernel.rights_for(domain.pd_id, vpn)
            state[("rights", domain.pd_id, vpn)] = (
                None if info is None else info.rights
            )
    return state


def measure_batched(
    model: str,
    *,
    n_cpus: int = 8,
    n_domains: int = 4,
    pages: int = 24,
    n_frames: int = 512,
) -> BatchedResult:
    """Run the group-verb workload batched AND legacy on twin kernels.

    Both kernels see the identical scenario; only ``bus.batch`` differs.
    Each verb covers K = ``pages // 3`` pages.  The differential check
    requires identical protection end state and clean structural
    invariants on both, so the message reduction is demonstrably free of
    correctness cost; ``problems`` also names every verb whose legacy
    run did not send exactly K times the batched messages for the same
    entries.
    """
    if pages < 6:
        raise ValueError("the group-verb workload needs at least 6 pages")
    k = pages // 3
    runs: dict[bool, dict[str, Cost]] = {}
    ends: dict[bool, dict] = {}
    problems: list[str] = []
    for batch in (True, False):
        kernel, domains, shared = _stage(
            model, n_cpus=n_cpus, n_domains=n_domains, pages=pages, n_frames=n_frames
        )
        kernel.bus.batch = batch
        runs[batch] = _run_group_verbs(kernel, domains, shared, k)
        ends[batch] = _protection_end_state(kernel, domains, shared)
        label = "batched" if batch else "legacy"
        problems.extend(f"{label}: {text}" for text in check_invariants(kernel))
    if ends[True] != ends[False]:
        diff = {
            key
            for key in set(ends[True]) | set(ends[False])
            if ends[True].get(key) != ends[False].get(key)
        }
        problems.append(f"end-state divergence on {sorted(diff)[:8]}")
    end_state_ok = not problems
    for verb, batched in runs[True].items():
        legacy = runs[False][verb]
        if (legacy.msgs, legacy.entries) != (k * batched.msgs, batched.entries):
            problems.append(
                f"{verb}: legacy sent {legacy.msgs} msgs for {legacy.entries} "
                f"entries, K={k} x batched is {k * batched.msgs} msgs for "
                f"{batched.entries}"
            )
    return BatchedResult(
        model, n_cpus, pages, runs[True], runs[False], end_state_ok, problems
    )


def batched_table(
    models: Sequence[str] = MODELS,
    *,
    n_cpus: int = 8,
    n_domains: int = 4,
    pages: int = 24,
    n_frames: int = 512,
) -> Report:
    """The batched-vs-legacy §4.1.3 comparison, rendered.

    Every row shows ``msgs / entries / cycles`` per multi-page verb for
    each model, batched against legacy, plus machine-parseable workload
    lines and the differential end-state verdict.
    """
    results = {
        model: measure_batched(
            model, n_cpus=n_cpus, n_domains=n_domains, pages=pages, n_frames=n_frames
        )
        for model in models
    }
    headers = ["verb (on CPU 0)"] + [
        f"{m} {mode}" for m in results for mode in ("batched", "legacy")
    ]
    rows = []
    for verb in BATCH_VERBS:
        row = [verb]
        for model, result in results.items():
            for costs in (result.batched, result.legacy):
                cost = costs.get(verb)
                row.append(
                    "-" if cost is None else cost.render("msgs", "entries", "cycles")
                )
        rows.append(row)
    table = format_table(
        headers,
        rows,
        title=(
            f"§4.1.3 batched range shootdowns: msgs / entries / cycles per verb "
            f"(K={pages // 3} pages, {n_cpus} CPUs, {n_domains} domains)"
        ),
    )
    lines = [table, ""]
    for model, result in results.items():
        batched_msgs, legacy_msgs = result.workload_msgs
        lines.append(
            f"group-verb workload [batch=on] model={model}: "
            f"smp.shootdown.msgs={batched_msgs} "
            f"(batched={batched_msgs}, legacy={legacy_msgs}, "
            f"reduction={legacy_msgs / batched_msgs:.1f}x)"
        )
    if all(result.end_state_ok for result in results.values()):
        lines.append("end-state check: OK (batched == legacy, invariants clean)")
    else:
        lines.append("end-state check: FAIL")
    problems = [
        f"[{model}] {problem}"
        for model, result in results.items()
        for problem in result.problems
    ]
    return Report("\n".join(lines), problems)


# ---------------------------------------------------------------------- #
# Cluster × SMP: the N nodes × M CPUs composition matrix


@dataclass
class ClusterSMPResult:
    """One K-page DSM Get-Writable at N nodes × M CPUs.

    ``holders`` is how many remote nodes had to give up copies, each
    served by ONE ``invalidate_range`` wire message; ``cost`` sums the
    node-local shootdown fan-out over every node.
    """

    nodes: int
    cpus: int
    pages: int
    holders: int
    cost: Cost
    problems: list[str]


def measure_cluster_smp(
    model: str,
    *,
    nodes: int = 4,
    cpus: int = 4,
    pages: int = 8,
    k_pages: int = 6,
) -> ClusterSMPResult:
    """Measure a K-page DSM invalidation across the node×CPU composition.

    Every non-owner node first acquires read copies of the K pages (so
    each holds state to invalidate) and warms every CPU's protection
    hardware over them; node 0 then performs one ``get_writable_range``.
    The measured deltas answer the layered consistency question: how
    many interconnect messages, and how many node-local IPIs, did one
    multi-page rights change cost?

    ``nodes=1`` is the degenerate single-machine case: no interconnect,
    just the batched range verb on the staged one-domain kernel (the
    same verb the DSM invalidation rides).  ``problems`` names any
    node-local IPI that was not a batch and any wire traffic other than
    one request/reply pair per holder.
    """
    if k_pages > pages:
        raise ValueError(f"k_pages ({k_pages}) cannot exceed pages ({pages})")
    if nodes == 1:
        kernel, (domain,), shared = _stage(
            model, n_cpus=cpus, n_domains=1, pages=pages, n_frames=256, n_shards=cpus
        )
        vpns = list(shared.vpns())[:k_pages]
        cost = probe(kernel, lambda: kernel.set_pages_rights(domain, vpns, Rights.READ))
    else:
        from repro.cluster.dsm import ClusterDSM

        cluster = ClusterDSM(model, nodes=nodes, pages=pages, n_cpus=cpus)
        vpns = cluster.vpns[:k_pages]
        for nid in sorted(cluster.nodes)[1:]:
            for vpn in vpns:
                cluster.get_readable(cluster.nodes[nid], vpn)
        # Warm every CPU of every holder so each CPU's protection caches
        # hold entries the invalidation must reach.
        for _, node in sorted(cluster.nodes.items()):
            _warm(node.smp, [node.domain], vpns)
        cost = probe(
            cluster, lambda: cluster.get_writable_range(cluster.nodes[0], vpns)
        )
    holders = nodes - 1
    problems = []
    if cost.msgs != cost.batches:
        problems.append(
            f"{cost.msgs} IPIs but {cost.batches} batches (per-page fan-out)"
        )
    if cost.wire != 2 * holders:
        problems.append(
            f"{cost.wire} wire msgs for {holders} holders "
            "(expected one request/reply pair per holder)"
        )
    return ClusterSMPResult(nodes, cpus, k_pages, holders, cost, problems)


def cluster_smp_table(
    models: Sequence[str] = MODELS,
    *,
    nodes_axis: Sequence[int] = (1, 2, 4),
    cpus_axis: Sequence[int] = (1, 2, 4),
    pages: int = 8,
    k_pages: int = 6,
) -> Report:
    """The N×M composition matrix, rendered with greppable footer lines.

    Each cell reads ``wire / IPIs / batches`` for one K-page DSM
    invalidation at that node×CPU point.  The footer states, per model,
    whether the contract held at the largest point; the report's
    problems cover every cell.
    """
    results = {
        model: {
            (n, m): measure_cluster_smp(
                model, nodes=n, cpus=m, pages=pages, k_pages=k_pages
            )
            for n in nodes_axis
            for m in cpus_axis
        }
        for model in models
    }
    headers = ["nodes x cpus"] + list(models)
    rows = [
        [f"{n} x {m}"]
        + [
            results[model][(n, m)].cost.render("wire", "msgs", "batches")
            for model in models
        ]
        for n in nodes_axis
        for m in cpus_axis
    ]
    table = format_table(
        headers,
        rows,
        title=(
            f"Cluster x SMP consistency: wire msgs / node-local IPIs / "
            f"batched shootdowns per {k_pages}-page DSM invalidation"
        ),
    )
    lines = [table, ""]
    top = (max(nodes_axis), max(cpus_axis))
    for model in models:
        result = results[model][top]
        cost = result.cost
        lines.append(
            f"cluster-smp model={model} nodes={top[0]} cpus={top[1]}: "
            f"wire_msgs={cost.wire} holders={result.holders} "
            f"ipi_msgs={cost.msgs} ipi_batches={cost.batches} "
            f"fanout={'FAIL' if result.problems else 'OK'}"
        )
    lines.append(
        "contract: 1 invalidate_range wire message per holder node; each "
        "node applies it as one batched range shootdown per remote CPU."
    )
    problems = [
        f"[{model} @ {n}x{m}] {problem}"
        for model, cells in results.items()
        for (n, m), result in cells.items()
        for problem in result.problems
    ]
    return Report("\n".join(lines), problems)
