"""The ledger's four workloads, each run as independent *units*.

A unit is one fresh-kernel run of a workload at one seed, across all
three protection models: every kernel starts with empty modelled caches,
as the CLI entrypoints do.  A unit function returns a :class:`UnitResult`
holding what the simulator produced (per-model counter deltas, requests
and their virtual latencies) and the outcome of the correctness checks
the ledger can make on any seed:

* models fed identical inputs agree on everything the protection model
  cannot change (data-cache traffic, workload summaries, request counts);
* every kernel built in the unit passes the structural coherence check
  at the end (:func:`kernel_problems`, run by the ledger off the clock);
* served requests that end unrecovered are counted as failed.

The reference input and seeds 0 and 1 are also pinned exactly, by
digest (see ``run.py``).

The units call only public entrypoints: ``repro.analysis.table1.run_*``,
``repro.serve.driver.run_serve`` (which builds ``ClusterServer`` for the
cluster workload), and ``Kernel`` verbs driven through ``SMPMachine``.
Kernels built inside those entrypoints and the virtual latency of each
served request are observed from outside by :class:`layers.Probes`.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.analysis import table1
from repro.check.invariants import check_invariants
from repro.core.costs import cycles_for
from repro.core.rights import AccessType, Rights
from repro.os.kernel import MODELS, Kernel
from repro.serve.driver import ServeConfig, run_serve
from repro.sim.machine import SMPMachine
from repro.sim.stats import Stats
from repro.workloads.checkpoint import CheckpointConfig
from repro.workloads.compression import CompressionConfig
from repro.workloads.gc import GCConfig
from repro.workloads.rpc import RPCConfig
from repro.workloads.txn import TxnConfig

if TYPE_CHECKING:
    from layers import Probes

#: The serve driver's virtual CPU speed, for turning its virtual µs back
#: into simulated cycles.
CYCLES_PER_US = ServeConfig().cycles_per_us


@dataclass
class UnitResult:
    """What one unit produced, and what its checks found."""

    #: Per-model merged counter delta over the unit's measured run.
    deltas: dict[str, Stats]
    #: Requests attempted, all models (see each workload for what a
    #: request is).
    requests: int
    #: Requests that failed unrecovered.
    failed: int = 0
    #: Simulated cycles from each request's due time to its completion.
    latencies: list[int] = field(default_factory=list)
    #: Failed correctness checks, one line each.
    problems: list[str] = field(default_factory=list)

    @property
    def refs(self) -> int:
        return sum(delta["refs"] for delta in self.deltas.values())

    @property
    def sim_cycles(self) -> int:
        return sum(cycles_for(delta) for delta in self.deltas.values())

    def digest(self) -> str:
        """sha256 of the per-model counter deltas (the unit's output)."""
        payload = {model: delta.as_dict() for model, delta in self.deltas.items()}
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()

    def total(self) -> Stats:
        """All models' deltas merged, for per-layer ratios."""
        merged = Stats()
        for delta in self.deltas.values():
            merged.merge(delta)
        return merged


def _check_agree(problems: list[str], what: str, by_model: dict[str, object]) -> None:
    if len({json.dumps(value, sort_keys=True) for value in by_model.values()}) > 1:
        problems.append(f"models disagree on {what}: {by_model}")


def _dcache_traffic(stats: Stats) -> tuple[int, int]:
    return stats["dcache.hit"], stats["dcache.miss"]


def kernel_problems(kernels: list[Kernel]) -> list[str]:
    """Structural coherence violations left in any kernel (first 3 each)."""
    return [
        f"{kernel.model}: {problem}"
        for kernel in kernels
        for problem in check_invariants(kernel)[:3]
    ]


# --------------------------------------------------------------------- #
# table1: the seven full_table1 application classes, closed loop


#: ``(class name, entrypoint call at a unit seed)`` in the paper's row
#: order.  Attach/detach and the DSM row take no seed: their inputs are
#: fixed.
TABLE1_CLASSES: tuple[tuple[str, Callable[[int], table1.Table1Result]], ...] = (
    ("attach", lambda seed: table1.run_attach_detach()),
    ("gc", lambda seed: table1.run_gc(GCConfig(seed=seed))),
    ("dsm", lambda seed: table1.run_dsm()),
    ("txn", lambda seed: table1.run_txn(TxnConfig(seed=seed))),
    ("checkpoint", lambda seed: table1.run_checkpoint(CheckpointConfig(seed=seed))),
    ("compression", lambda seed: table1.run_compression(CompressionConfig(seed=seed))),
    ("rpc", lambda seed: table1.run_rpc(RPCConfig(seed=seed))),
)

#: Summary fields that legitimately differ between models.
MODEL_SPECIFIC_SUMMARY = frozenset({"group_alternations"})


def run_table1(seed: int, size: int, probes: Probes) -> UnitResult:
    """The first ``size`` Table 1 classes; a request is one class on one model."""
    deltas = {model: Stats() for model in MODELS}
    latencies: list[int] = []
    problems: list[str] = []
    for name, run in TABLE1_CLASSES[:size]:
        result = run(seed)
        for model, stats in result.stats_by_model.items():
            deltas[model].merge(stats)
            latencies.append(cycles_for(stats))
        _check_agree(
            problems,
            f"{name} summary",
            {
                model: {k: v for k, v in summary.items() if k not in MODEL_SPECIFIC_SUMMARY}
                for model, summary in result.summary_by_model.items()
            },
        )
        _check_agree(
            problems,
            f"{name} dcache traffic",
            {model: _dcache_traffic(s) for model, s in result.stats_by_model.items()},
        )
    return UnitResult(deltas, len(latencies), 0, latencies, problems)


# --------------------------------------------------------------------- #
# serve and cluster: the open-loop driver


def serve_config(seed: int, duration_ms: int) -> ServeConfig:
    """``repro serve --cpus 2 --plan mixed`` with the default Poisson mix."""
    return ServeConfig(
        duration_ms=duration_ms, seed=seed, models=MODELS, cpus=2, plan="mixed"
    )


def cluster_config(seed: int, duration_ms: int) -> ServeConfig:
    """4 nodes x 4 CPUs, 16 shared pages, 320 req/s under ``cluster-lossy``."""
    return ServeConfig(
        duration_ms=duration_ms,
        seed=seed,
        models=MODELS,
        cpus=4,
        plan="cluster-lossy",
        rates={"cluster": 320.0},
        cluster_nodes=4,
        cluster_pages=16,
    )


def _run_served(config: ServeConfig, probes: Probes) -> UnitResult:
    """A request is one arrival handled by one model's server."""
    result = run_serve(config)
    served = probes.served
    problems: list[str] = []
    per_model = {model: 0 for model in config.models}
    for model, _ in served:
        per_model[model] += 1
    _check_agree(problems, "requests served", per_model)
    latencies = [us * CYCLES_PER_US for _, us in served]
    failed = sum(result.unrecovered.values())
    return UnitResult(dict(result.stats), len(served), failed, latencies, problems)


def run_serve_unit(seed: int, size: int, probes: Probes) -> UnitResult:
    return _run_served(serve_config(seed, size), probes)


def run_cluster_unit(seed: int, size: int, probes: Probes) -> UnitResult:
    unit = _run_served(cluster_config(seed, size), probes)
    # Cluster bursts are drawn from one seeded stream per model, so the
    # reference stream (and the data caches it drives) is model-free.
    _check_agree(
        unit.problems,
        "refs and dcache traffic",
        {m: (d["refs"],) + _dcache_traffic(d) for m, d in unit.deltas.items()},
    )
    return unit


# --------------------------------------------------------------------- #
# smp: resident reads beside protection writes on 8 CPUs


class SmpUnit:
    """One model's 8-CPU, 4-shard kernel driven round by round.

    Each CPU runs its own domain, which reads 24 random lines of its
    private 2-page segment per round (8 KB, resident in the 16 KB
    modelled data cache) and writes one line of a 32-page shared
    segment.  Each round ends with an 8-page downgrade and restore of
    the shared segment for every domain, which range-shoots-down all 7
    remote CPUs.
    """

    CPUS = 8
    SHARDS = 4
    PRIVATE_PAGES = 2
    SHARED_PAGES = 32
    READS = 24
    DOWNGRADE_PAGES = 8

    def __init__(self, model: str, seed: int) -> None:
        self.kernel = kernel = Kernel(model, n_cpus=self.CPUS, n_shards=self.SHARDS)
        self.machine = SMPMachine(kernel)
        self.shared = kernel.create_segment("shared", self.SHARED_PAGES)
        self.domains = []
        self.private = []
        for cpu in range(self.CPUS):
            domain = kernel.create_domain(f"cpu{cpu}")
            segment = kernel.create_segment(f"private{cpu}", self.PRIVATE_PAGES)
            kernel.attach(domain, segment, Rights.RW)
            kernel.attach(domain, self.shared, Rights.RW)
            self.domains.append(domain)
            self.private.append(segment)
        params = kernel.params
        self._line = params.cache_line_bytes
        self._lines_per_page = params.page_size // self._line
        # The same stream for every model: identical inputs per seed.
        self._rng = random.Random(f"ledger-smp:{seed}")
        self._baseline = kernel.merged_stats()

    def round(self) -> int:
        """One round on every CPU; returns its simulated cycles (closed loop)."""
        kernel = self.kernel
        params = kernel.params
        rng = self._rng
        line = self._line
        before = kernel.merged_stats()
        for cpu, domain in enumerate(self.domains):
            base = params.vaddr(self.private[cpu].base_vpn)
            for _ in range(self.READS):
                offset = rng.randrange(self.PRIVATE_PAGES * self._lines_per_page) * line
                self.machine.touch_on(cpu, domain, base + offset, AccessType.READ)
            vpn = self.shared.base_vpn + rng.randrange(self.SHARED_PAGES)
            offset = rng.randrange(self._lines_per_page) * line
            self.machine.touch_on(cpu, domain, params.vaddr(vpn, offset), AccessType.WRITE)
        kernel.set_current_cpu(0)
        first = self.shared.base_vpn + rng.randrange(
            self.SHARED_PAGES // self.DOWNGRADE_PAGES
        ) * self.DOWNGRADE_PAGES
        pages = range(first, first + self.DOWNGRADE_PAGES)
        kernel.set_pages_rights_all_domains(pages, Rights.READ)
        kernel.set_pages_rights_all_domains(pages, Rights.RW)
        return cycles_for(kernel.merged_stats().delta(before))

    def delta(self) -> Stats:
        return self.kernel.merged_stats().delta(self._baseline)


def run_smp(seed: int, size: int, probes: Probes) -> UnitResult:
    """``size`` rounds per model; a request is one round on one model."""
    deltas: dict[str, Stats] = {}
    latencies: list[int] = []
    for model in MODELS:
        unit = SmpUnit(model, seed)
        latencies.extend(unit.round() for _ in range(size))
        deltas[model] = unit.delta()
    problems: list[str] = []
    _check_agree(
        problems,
        "dcache traffic",
        {model: _dcache_traffic(delta) for model, delta in deltas.items()},
    )
    msgs = [deltas[model]["smp.shootdown.msgs"] for model in ("plb", "pagegroup", "conventional")]
    if not msgs[0] <= msgs[1] <= msgs[2]:
        problems.append(f"shootdown ordering plb <= pagegroup <= conventional broken: {msgs}")
    return UnitResult(deltas, len(latencies), 0, latencies, problems)
