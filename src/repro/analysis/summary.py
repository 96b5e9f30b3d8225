"""Cross-workload summary: the 'who wins where' capstone table.

The paper concludes that "many of the answers will depend on how the
systems will be used, i.e., which operations are most common"
(Section 6).  This module runs every application class under all three
systems on one (small) configuration and summarizes weighted cycles per
workload, plus the geometric-mean ratio of each system against the PLB
baseline — the shape a follow-on evaluation paper would lead with.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.analysis.report import format_table
from repro.analysis.table1 import (
    Table1Result,
    run_attach_detach,
    run_checkpoint,
    run_compression,
    run_fileserver,
    run_gc,
    run_rpc,
    run_shlib,
    run_txn,
)
from repro.core.costs import CycleCosts, DEFAULT_COSTS, geometric_mean
from repro.os.kernel import MODELS
from repro.workloads.attach import AttachConfig
from repro.workloads.checkpoint import CheckpointConfig
from repro.workloads.compression import CompressionConfig
from repro.workloads.fileserver import FileServerConfig
from repro.workloads.gc import GCConfig
from repro.workloads.rpc import RPCConfig
from repro.workloads.shlib import SharedLibraryConfig
from repro.workloads.txn import TxnConfig

#: The quick-run configurations used for the summary (small but
#: representative; each workload's dedicated bench uses larger ones).
QUICK_RUNS: list[tuple[str, Callable[..., Table1Result]]] = [
    ("attach/detach", lambda models: run_attach_detach(
        AttachConfig(segments=8, pages_per_segment=4, sharers=1), models=models)),
    ("concurrent GC", lambda models: run_gc(
        GCConfig(heap_pages=24, collections=2, mutator_refs_per_cycle=600),
        models=models)),
    ("transactions", lambda models: run_txn(
        TxnConfig(db_pages=24, transactions=8, touches_per_txn=14), models=models)),
    ("checkpoint", lambda models: run_checkpoint(
        CheckpointConfig(segment_pages=24, checkpoints=2, refs_per_checkpoint=400),
        models=models)),
    ("compression paging", lambda models: run_compression(
        CompressionConfig(segment_pages=32, resident_budget=12, refs=1_000),
        models=models)),
    ("RPC", lambda models: run_rpc(RPCConfig(calls=60), models=models)),
    ("file server", lambda models: run_fileserver(
        FileServerConfig(requests=45, files=8, active_files=4), models=models)),
    ("shared libraries", lambda models: run_shlib(
        SharedLibraryConfig(libraries=3, library_pages=4, domains=3, rounds=3,
                            fetches_per_round=16),
        models=models)),
]


#: Fault/recovery counters, so soak runs show recovery *cost*, not
#: just correctness.
RECOVERY_COUNTERS = (
    "faults.injected",
    "faults.recovered",
    "disk.retries",
    "scrub.repairs",
    "cluster.msg.sent",
    "cluster.retries",
    "cluster.handoffs",
    "cluster.reconcile.repairs",
)

#: Range-shootdown batching counters: nonzero only when a multi-CPU run
#: actually coalesced a multi-page verb.
SMP_BATCH_COUNTERS = (
    "smp.shootdown.batches",
    "smp.shootdown.batched_entries",
    "smp.tlb_shootdown.batches",
    "smp.tlb_shootdown.batched_entries",
)

#: Authority-sharding and cluster/SMP composition counters: nonzero only
#: when the authority runs sharded (n_shards > 1) or a multi-CPU cluster
#: node applies a batched DSM invalidation.
SHARD_COUNTERS = (
    "authority.shard.mutations",
    "authority.shard.local",
    "authority.shard.cross",
    "cluster.smp.invalidate_batches",
    "cluster.smp.invalidate_pages",
)

#: The counter families ``workload``, ``profile`` and ``summary`` print,
#: as (title, counters) pairs, in print order.
COUNTER_FAMILIES = (
    ("fault recovery", RECOVERY_COUNTERS),
    ("batched shootdowns", SMP_BATCH_COUNTERS),
    ("authority shards", SHARD_COUNTERS),
)


def counter_family_lines(stats_by_model) -> list[str]:
    """One block per counter family, omitted when all its counters are zero.

    ``stats_by_model`` maps each model to its counts (a ``Stats`` or a
    plain mapping).  Fault-free, single-CPU, unsharded runs contribute no
    lines at all, so seed output (and the bench baselines pinned on it)
    stays byte-identical.
    """
    lines: list[str] = []
    for title, names in COUNTER_FAMILIES:
        totals = {
            model: {name: stats.get(name, 0) for name in names}
            for model, stats in stats_by_model.items()
        }
        if not any(any(counts.values()) for counts in totals.values()):
            continue
        lines.append(f"{title}:")
        for model, counts in totals.items():
            ranked = ", ".join(
                f"{name}={count}" for name, count in counts.items() if count
            )
            lines.append(f"  {model}: {ranked or '(none)'}")
    return lines


def hot_counter_lines(stats_by_model, n: int = 6) -> list[str]:
    """Lead-in lines naming each model's hottest counters.

    Workload dumps print these ahead of the full table so the reader
    sees where the events actually went before the alphabetical wall.
    """
    lines = [f"hot counters (top {n} per model):"]
    for model, stats in stats_by_model.items():
        ranked = ", ".join(f"{name}={count}" for name, count in stats.top(n))
        lines.append(f"  {model}: {ranked or '(no events)'}")
    return lines


@dataclass
class SummaryRow:
    workload: str
    cycles: dict[str, int]
    #: per-model COUNTER_FAMILIES totals (all zero on fault-free runs).
    recovery: dict[str, dict[str, int]] = field(default_factory=dict)


def run_summary(
    *, models: Sequence[str] = MODELS, costs: CycleCosts = DEFAULT_COSTS
) -> list[SummaryRow]:
    """Run the quick configurations of every workload across models."""
    rows = []
    for name, runner in QUICK_RUNS:
        result = runner(tuple(models))
        rows.append(SummaryRow(
            workload=name,
            cycles=result.cycles(costs),
            recovery={
                model: {
                    counter: stats.get(counter, 0)
                    for _, counters in COUNTER_FAMILIES
                    for counter in counters
                }
                for model, stats in result.stats_by_model.items()
            },
        ))
    return rows


def render_summary(rows: list[SummaryRow], *, baseline: str = "plb") -> str:
    """Cycles per workload per model, plus geomean ratios vs baseline."""
    models = list(rows[0].cycles)
    table_rows = []
    for row in rows:
        base = row.cycles[baseline]
        table_rows.append(
            [row.workload]
            + [row.cycles[model] for model in models]
            + [f"{row.cycles[model] / base:.2f}x" for model in models if model != baseline]
        )
    ratio_columns = [f"{model}/{baseline}" for model in models if model != baseline]
    geomeans = []
    for model in models:
        if model == baseline:
            continue
        ratios = [row.cycles[model] / row.cycles[baseline] for row in rows]
        geomeans.append(f"{geometric_mean(ratios):.2f}x")
    table = format_table(
        ["workload"] + models + ratio_columns,
        table_rows,
        title="Weighted cycles per workload (quick configurations)",
    )
    footer = "geometric mean " + ", ".join(
        f"{column} = {value}" for column, value in zip(ratio_columns, geomeans)
    )
    recovery_totals: dict[str, dict[str, int]] = {}
    for row in rows:
        for model, counts in row.recovery.items():
            bucket = recovery_totals.setdefault(model, {})
            for name, count in counts.items():
                bucket[name] = bucket.get(name, 0) + count
    families = counter_family_lines(recovery_totals)
    if families:
        footer += "\n" + "\n".join(families)
    return table + "\n" + footer
