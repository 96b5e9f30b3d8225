"""Regeneration of the paper's Table 1 with *measured* costs.

The paper's Table 1 is qualitative: for each application class and
action it describes what each protection model must do.  This module
runs the implemented workloads under every model and reports what those
described operations actually cost in structure events — faults taken,
entries inspected/updated/purged, TLB operations, group-cache traffic —
so the two columns of the paper become two measured columns.

Each ``run_*`` function executes one application class across the
requested models on identical inputs and returns a :class:`Table1Result`
with per-model stats and the rendered rows.  ``full_table1`` strings all
of them together in the paper's row order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.analysis.report import comparison_table, format_table
from repro.core.costs import CycleCosts, DEFAULT_COSTS, cycles_for
from repro.os.kernel import Kernel, MODELS
from repro.sim.stats import Stats
from repro.workloads.attach import AttachConfig, AttachDetachWorkload
from repro.workloads.checkpoint import CheckpointConfig, ConcurrentCheckpoint
from repro.workloads.compression import CompressionConfig, CompressionPaging
from repro.workloads.dsm import DSMCluster
from repro.workloads.fileserver import FileServer, FileServerConfig
from repro.workloads.gc import ConcurrentGC, GCConfig
from repro.workloads.rpc import RPCConfig, RPCWorkload
from repro.workloads.txn import TransactionalVM, TxnConfig

#: Counters reported for every application class, in addition to the
#: class-specific ones.  ``*`` sums a prefix.
COMMON_COUNTERS: list[tuple[str, str]] = [
    ("kernel traps", "kernel.trap"),
    ("protection faults", "kernel.fault.protection"),
    ("page faults", "kernel.fault.page"),
    ("PLB fills", "plb.fill"),
    ("PLB entry updates", "plb.update"),
    ("PLB entries inspected (sweeps)", "plb.sweep_inspected"),
    ("PLB entries removed/updated", "plb.sweep_removed"),
    ("TLB fills (translation-only)", "tlb.fill"),
    ("AID-TLB fills", "pgtlb.fill"),
    ("AID-TLB entry updates", "pgtlb.update"),
    ("group-cache fills", "pgcache.fill"),
    ("group reload traps", "group_reload"),
    ("ASID-TLB fills", "asidtlb.fill"),
    ("ASID-TLB entry updates", "asidtlb.update"),
    ("ASID-TLB sweep inspections", "asidtlb.sweep_inspected"),
    ("PD-ID register writes", "pdid.write"),
]


@dataclass
class Table1Result:
    """One application class, measured across models: each model's
    counters and workload summary, rendered as Table 1 rows by
    :meth:`render` and priced by :meth:`cycles`."""

    title: str
    stats_by_model: dict[str, Stats]
    #: Workload-level summary per model (same inputs, so normally equal).
    summary_by_model: dict[str, dict[str, object]]

    def render(self, extra_counters: Sequence[tuple[str, str]] = ()) -> str:
        counters = list(extra_counters) + COMMON_COUNTERS
        body = comparison_table(self.stats_by_model, counters, title=self.title)
        cycles = {
            model: cycles_for(stats) for model, stats in self.stats_by_model.items()
        }
        cycle_row = format_table(
            ["model"] + list(cycles), [["weighted cycles"] + list(cycles.values())]
        )
        return body + "\n" + cycle_row

    def cycles(self, costs: CycleCosts = DEFAULT_COSTS) -> dict[str, int]:
        return {
            model: cycles_for(stats, costs)
            for model, stats in self.stats_by_model.items()
        }


def _run_matrix(
    title: str,
    build: Callable[[Kernel], object],
    *,
    models: Sequence[str] = MODELS,
    kernel_options: dict | None = None,
    summarize: Callable[[object], dict[str, object]] | None = None,
) -> Table1Result:
    stats_by_model: dict[str, Stats] = {}
    summary_by_model: dict[str, dict[str, object]] = {}
    for model in models:
        kernel = Kernel(model, **(kernel_options or {}))
        workload = build(kernel)
        report = workload.run()  # type: ignore[attr-defined]
        stats_by_model[model] = report.stats
        summary_by_model[model] = summarize(report) if summarize else {}
    return Table1Result(title, stats_by_model, summary_by_model)


# --------------------------------------------------------------------- #
# One entry point per Table 1 application class


def run_attach_detach(
    config: AttachConfig | None = None, *, models: Sequence[str] = MODELS
) -> Table1Result:
    """Table 1 rows: Attach Segment / Detach Segment."""
    config = config or AttachConfig(segments=16, pages_per_segment=8, sharers=1)
    return _run_matrix(
        "Table 1: Attach/Detach Segment",
        lambda kernel: AttachDetachWorkload(kernel, config),
        models=models,
        summarize=lambda r: {"attaches": r.attaches, "detaches": r.detaches},
    )


def run_gc(
    config: GCConfig | None = None, *, models: Sequence[str] = MODELS
) -> Table1Result:
    """Table 1 rows: Concurrent Garbage Collection."""
    config = config or GCConfig()
    return _run_matrix(
        "Table 1: Concurrent Garbage Collection (flip spaces / scan on fault)",
        lambda kernel: ConcurrentGC(kernel, config),
        models=models,
        summarize=lambda r: {
            "collections": r.collections,
            "pages_scanned": r.pages_scanned,
            "scan_faults": r.scan_faults,
        },
    )


def run_dsm(
    *,
    models: Sequence[str] = MODELS,
    nodes: int = 4,
    pages: int = 32,
    pattern: str = "migratory",
    rounds: int = 3,
    refs_per_round: int = 300,
) -> Table1Result:
    """Table 1 rows: Distributed VM (get readable/writable, invalidate)."""
    stats_by_model: dict[str, Stats] = {}
    summary: dict[str, dict[str, object]] = {}
    for model in models:
        cluster = DSMCluster(model, nodes=nodes, pages=pages)
        if pattern == "migratory":
            stats = cluster.run_migratory(rounds=rounds, refs_per_round=refs_per_round)
        elif pattern == "producer_consumer":
            stats = cluster.run_producer_consumer(iterations=rounds * 3)
        else:
            raise ValueError(f"unknown DSM pattern {pattern!r}")
        stats_by_model[model] = stats
        summary[model] = {
            "get_readable": stats["dsm.get_readable"],
            "get_writable": stats["dsm.get_writable"],
            "invalidates": stats["dsm.msg.invalidate"],
        }
    return Table1Result(
        f"Table 1: Distributed VM ({pattern}, {nodes} nodes)", stats_by_model, summary
    )


def run_txn(
    config: TxnConfig | None = None, *, models: Sequence[str] = MODELS
) -> Table1Result:
    """Table 1 rows: Transactional VM (lock read/write, commit)."""
    config = config or TxnConfig()
    return _run_matrix(
        f"Table 1: Transactional VM (lock_strategy={config.lock_strategy})",
        lambda kernel: TransactionalVM(kernel, config),
        models=models,
        summarize=lambda r: {
            "commits": r.commits,
            "read_locks": r.read_locks,
            "write_locks": r.write_locks,
            "group_alternations": r.group_alternations,
        },
    )


def run_checkpoint(
    config: CheckpointConfig | None = None, *, models: Sequence[str] = MODELS
) -> Table1Result:
    """Table 1 rows: Concurrent Checkpoint (restrict / checkpoint page)."""
    config = config or CheckpointConfig()
    return _run_matrix(
        "Table 1: Concurrent Checkpoint",
        lambda kernel: ConcurrentCheckpoint(kernel, config),
        models=models,
        summarize=lambda r: {
            "checkpoints": r.checkpoints,
            "pages_checkpointed": r.pages_checkpointed,
            "cow_faults": r.copy_on_write_faults,
        },
    )


def run_compression(
    config: CompressionConfig | None = None,
    *,
    models: Sequence[str] = MODELS,
    n_frames: int = 4096,
) -> Table1Result:
    """Table 1 rows: Compression Paging (page-out / page-in)."""
    config = config or CompressionConfig()
    return _run_matrix(
        "Table 1: Compression Paging",
        lambda kernel: CompressionPaging(kernel, config),
        models=models,
        kernel_options={"n_frames": n_frames},
        summarize=lambda r: {
            "page_outs": r.page_outs,
            "page_ins": r.page_ins,
            "compression_ratio": round(r.compression_ratio, 2),
        },
    )


def run_rpc(
    config: RPCConfig | None = None, *, models: Sequence[str] = MODELS
) -> Table1Result:
    """Section 4.1.4: the domain-switch cost under RPC."""
    config = config or RPCConfig()
    return _run_matrix(
        "Section 4.1.4: Domain switches under RPC",
        lambda kernel: RPCWorkload(kernel, config),
        models=models,
        summarize=lambda r: {"calls": r.calls, "switches": r.switches},
    )


def run_shlib(
    config=None, *, models: Sequence[str] = MODELS
) -> Table1Result:
    """Section 2.1's code-sharing scenario: shared libraries."""
    from repro.workloads.shlib import SharedLibraryConfig, SharedLibraryWorkload

    config = config or SharedLibraryConfig()
    return _run_matrix(
        "Section 2.1: Shared code libraries",
        lambda kernel: SharedLibraryWorkload(kernel, config),
        models=models,
        summarize=lambda r: {"rounds": r.rounds, "fetches": r.fetches},
    )


def run_fileserver(
    config: FileServerConfig | None = None, *, models: Sequence[str] = MODELS
) -> Table1Result:
    """Section 2.1's macro scenario: the file server."""
    config = config or FileServerConfig()
    return _run_matrix(
        f"Macro-workload: File server (mode={config.mode})",
        lambda kernel: FileServer(kernel, config),
        models=models,
        summarize=lambda r: {
            "requests": r.requests,
            "attaches": r.attaches,
            "detaches": r.detaches,
            "client_attaches": r.client_attaches,
        },
    )


def full_table1(*, models: Sequence[str] = MODELS) -> str:
    """Every application class of Table 1, measured, in paper order."""
    sections = [
        run_attach_detach(models=models),
        run_gc(models=models),
        run_dsm(models=models),
        run_txn(models=models),
        run_checkpoint(models=models),
        run_compression(models=models),
        run_rpc(models=models),
    ]
    return "\n\n".join(section.render() for section in sections)
