"""Command-line interface: regenerate paper artifacts and run workloads.

``python -m repro <command>``:

* ``figure1`` / ``figure2`` — print the figure reproductions.
* ``table1`` — run every Table 1 application class across the models and
  print the measured tables (slow-ish; use ``--models`` to narrow).
* ``entry-sizes`` — the §3.2.1/§4 bit-cost tables.
* ``workload <name>`` — run one application class on one model and dump
  its stats (names: attach, gc, dsm, txn, checkpoint, compression, rpc).
* ``trace <name>`` — run one application class on one model with the
  span tracer on (a span per workload phase, kernel verb and memory
  reference) and export the trace (Chrome ``trace_event`` by default;
  also JSONL and RunReport JSON).
* ``profile <name>`` — run traced and print the top-N hotspot table
  (spans ranked by attributed weighted cycles).
* ``replay <trace-file>`` — replay a saved reference trace on a model.
* ``check <scenario>`` — the kernel oracle: replay a seeded
  kernel-verb/reference stream through the selected models in lockstep
  against the gold model, through the pager, on ``--cpus`` CPUs.  With
  no ``--plan`` every reference is compared; under a seeded fault plan
  (disk errors, bit rot, machine checks, dropped shootdowns) recovery
  must converge the end state back to gold.  A divergence exits 1 with
  a minimized, replayable JSON repro dump.  Scenarios: fuzz, attach,
  rights, paging, switch.
* ``crash-recover`` — sweep a simulated crash through every mutation
  boundary of every journaled kernel verb and verify the intent journal
  restores the authoritative state byte-for-byte.
* ``smp`` — multiprocessor mode (§4.1.3): print the measured remote
  shootdown-consistency table for ``--cpus N``.
* ``serve`` — open-loop virtual-time server: seeded Poisson arrivals mix
  txn/gc/rpc/checkpoint requests against long-lived kernels, continuous
  chaos (``--plan``) and a background scrubber run alongside, and live
  SLO telemetry streams out as JSONL snapshots, Prometheus text, and a
  final per-model SLO summary; exit 1 on unrecovered divergence.  With
  ``--cluster-nodes N`` the served system is a fault-tolerant N-node
  DSM cluster and the fault plan strikes the interconnect instead.
* ``cluster`` — fault-tolerant cluster DSM chaos: by default sweep one
  fault (node crash / link partition) through *every* interconnect
  message index on every model and demand convergence to the gold
  oracle or an explicit ``unrecoverable`` verdict; with ``--plan`` run
  a single audited case under that plan.  Exit 1 (with a replayable
  JSON dump) only on silent divergence.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.analysis.figures import render_figure1, render_figure2
from repro.analysis.report import format_table
from repro.analysis.summary import (
    counter_family_lines,
    hot_counter_lines,
    render_summary,
    run_summary,
)
from repro.analysis.table1 import (
    full_table1,
    run_attach_detach,
    run_checkpoint,
    run_compression,
    run_dsm,
    run_fileserver,
    run_gc,
    run_rpc,
    run_shlib,
    run_txn,
)
from repro.core.costs import (
    conventional_tlb_entry_bits,
    cycles_for,
    pagegroup_tlb_entry_bits,
    plb_entry_bits,
    plb_size_advantage,
    translation_tlb_entry_bits,
    vivt_overhead_ratio,
)
from repro.core.params import DEFAULT_PARAMS
from repro.os.kernel import Kernel, MODELS
from repro.sim.machine import Machine
from repro.sim.trace import read_trace

WORKLOADS = {
    "attach": run_attach_detach,
    "gc": run_gc,
    "txn": run_txn,
    "checkpoint": run_checkpoint,
    "compression": run_compression,
    "rpc": run_rpc,
    "fileserver": run_fileserver,
    "shlib": run_shlib,
}


class CLIError(Exception):
    """A user-facing command error: printed to stderr, exit status 2."""


def _validate_parallelism(*, cpus: int) -> None:
    """One validation path for ``--cpus``: simulated CPUs inside one
    kernel."""
    if cpus < 1:
        raise CLIError("--cpus must be >= 1")


def _workload_factories():
    """Single-kernel builders for the traceable application classes.

    DSM is excluded: it builds one kernel per cluster node, so it has no
    single kernel a tracer could be attached to.
    """
    from repro.workloads.attach import AttachDetachWorkload
    from repro.workloads.checkpoint import ConcurrentCheckpoint
    from repro.workloads.compression import CompressionPaging
    from repro.workloads.fileserver import FileServer
    from repro.workloads.gc import ConcurrentGC
    from repro.workloads.rpc import RPCWorkload
    from repro.workloads.shlib import SharedLibraryWorkload
    from repro.workloads.txn import TransactionalVM

    return {
        "attach": AttachDetachWorkload,
        "gc": ConcurrentGC,
        "txn": TransactionalVM,
        "checkpoint": ConcurrentCheckpoint,
        "compression": CompressionPaging,
        "rpc": RPCWorkload,
        "fileserver": FileServer,
        "shlib": SharedLibraryWorkload,
    }


def _parse_models(text: str) -> tuple[str, ...]:
    models = tuple(model.strip() for model in text.split(",") if model.strip())
    if not models:
        raise argparse.ArgumentTypeError(
            f"no model named; choose from {', '.join(MODELS)}"
        )
    for model in models:
        if model not in MODELS:
            raise argparse.ArgumentTypeError(
                f"unknown model {model!r}; choose from {', '.join(MODELS)}"
            )
    return models


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Architectural Support for Single "
        "Address Space Operating Systems' (ASPLOS 1992)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("figure1", help="print the Figure 1 reproduction")
    sub.add_parser("figure2", help="print the Figure 2 truth table")
    sub.add_parser("entry-sizes", help="print the §3.2.1/§4 bit-cost tables")

    everything = sub.add_parser(
        "all", help="regenerate every artifact (figures, Table 1, summary)"
    )
    everything.add_argument(
        "--models", type=_parse_models, default=MODELS,
        help="comma-separated subset of: " + ",".join(MODELS),
    )

    table1 = sub.add_parser("table1", help="regenerate Table 1 (measured)")
    table1.add_argument(
        "--models", type=_parse_models, default=MODELS,
        help="comma-separated subset of: " + ",".join(MODELS),
    )

    summary = sub.add_parser(
        "summary", help="cross-workload weighted-cycles summary"
    )
    summary.add_argument(
        "--models", type=_parse_models, default=MODELS,
        help="comma-separated subset of: " + ",".join(MODELS),
    )

    workload = sub.add_parser("workload", help="run one application class")
    workload.add_argument("name", help="one of: " + ", ".join(sorted(WORKLOADS) + ["dsm"]))
    workload.add_argument(
        "--models", type=_parse_models, default=MODELS,
        help="comma-separated subset of: " + ",".join(MODELS),
    )

    trace = sub.add_parser(
        "trace", help="run one application class traced and export spans"
    )
    trace.add_argument("name", help="one of: " + ", ".join(sorted(WORKLOADS)))
    trace.add_argument("--model", default="plb", help="one of: " + ", ".join(MODELS))
    trace.add_argument("--out", required=True, help="output file path")
    trace.add_argument(
        "--format", choices=("chrome", "jsonl", "report"), default="chrome",
        help="chrome trace_event JSON (default), span JSONL, or RunReport JSON",
    )

    profile = sub.add_parser(
        "profile", help="run one application class traced and print hotspots"
    )
    profile.add_argument("name", help="one of: " + ", ".join(sorted(WORKLOADS)))
    profile.add_argument("--model", default="plb", help="one of: " + ", ".join(MODELS))
    profile.add_argument(
        "--top", type=int, default=12, help="rows in the hotspot table"
    )
    profile.add_argument(
        "--shards", type=int, default=1, metavar="K",
        help="partition the Authority into K VPN-range home shards "
        "(default 1: monolithic, byte-identical to pre-shard output)",
    )

    replay = sub.add_parser("replay", help="replay a saved reference trace")
    replay.add_argument("trace", help="trace file (see repro.sim.trace)")
    replay.add_argument("--model", choices=MODELS, default="plb")
    replay.add_argument(
        "--pages", type=int, default=64,
        help="pages in the segment created for the trace's addresses",
    )

    from repro.faults.plan import preset_catalog

    check = sub.add_parser(
        "check", help="run the kernel oracle (every model in lockstep "
        "against the gold model, optionally under a fault plan)",
        epilog=preset_catalog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    check.add_argument(
        "scenario",
        help="fuzz scenario: fuzz, attach, rights, paging or switch",
    )
    check.add_argument(
        "--models", type=_parse_models, default=MODELS,
        help="comma-separated subset of: " + ",".join(MODELS),
    )
    check.add_argument(
        "--seed", default="0",
        help="single seed ('7') or inclusive range ('0..9')",
    )
    check.add_argument(
        "--ops", type=int, default=250,
        help="approximate operations per seed (default 250)",
    )
    check.add_argument(
        "--plan", default="none",
        help="fault plan: 'none' (the default: compare every reference), "
        "a preset name, or a JSON file (a plan dict or a repro dump)",
    )
    check.add_argument(
        "--cpus", type=int, default=1, metavar="N",
        help="simulated CPUs per kernel; references go round-robin "
        "(default 1)",
    )

    crash = sub.add_parser(
        "crash-recover",
        help="sweep simulated crashes through every journaled verb",
    )
    crash.add_argument(
        "--models", type=_parse_models, default=MODELS,
        help="comma-separated subset of: " + ",".join(MODELS),
    )

    smp = sub.add_parser(
        "smp", help="multiprocessor consistency table (§4.1.3)",
    )
    smp.add_argument(
        "--cpus", type=int, default=4, metavar="N",
        help="simulated CPUs sharing one kernel authority (default 4)",
    )
    smp.add_argument(
        "--models", type=_parse_models, default=MODELS,
        help="comma-separated subset of: " + ",".join(MODELS),
    )
    smp.add_argument(
        "--domains", type=int, default=4, metavar="D",
        help="protection domains sharing the measured segment (default 4)",
    )
    smp.add_argument(
        "--pages", type=int, default=8,
        help="pages in the shared segment (default 8, minimum 4)",
    )

    serve = sub.add_parser(
        "serve",
        help="open-loop virtual-time server with live SLO telemetry",
        epilog=preset_catalog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    serve.add_argument(
        "--duration", type=int, default=1000, metavar="MS",
        help="virtual duration in milliseconds (default 1000)",
    )
    serve.add_argument(
        "--seed", type=int, default=0,
        help="seed for the arrival schedule and chaos plan (default 0)",
    )
    serve.add_argument(
        "--models", type=_parse_models, default=("plb",),
        help="comma-separated subset of: " + ",".join(MODELS),
    )
    serve.add_argument(
        "--cpus", type=int, default=1, metavar="K",
        help="simulated CPUs per served kernel; workload classes are "
        "assigned round-robin (default 1)",
    )
    serve.add_argument(
        "--plan", default=None,
        help="chaos preset armed continuously for the whole run "
        "('none' or omitted disables)",
    )
    serve.add_argument(
        "--rates", default=None, metavar="CLASS=R,...",
        help="per-class arrival rates in requests per virtual second, "
        "e.g. txn=60,gc=20,rpc=150,checkpoint=12 (the default mix); "
        "listing a subset serves only those classes",
    )
    serve.add_argument(
        "--cycles-per-us", type=int, default=200,
        help="virtual CPU speed: simulated cycles per virtual µs; sets "
        "service time and therefore queueing under load (default 200)",
    )
    serve.add_argument(
        "--cluster-nodes", type=int, default=0, metavar="N",
        help="serve a fault-tolerant N-node DSM cluster (one address "
        "space across machines) instead of a single kernel; the fault "
        "plan then strikes the interconnect, and the summary gains "
        "measured recovery-time percentiles (0 disables; minimum 2)",
    )
    serve.add_argument(
        "--cluster-pages", type=int, default=8, metavar="P",
        help="shared pages in the cluster's DSM segment (default 8; "
        "cluster mode only)",
    )
    serve.add_argument(
        "--jsonl-out", default=None, metavar="PATH",
        help="stream one JSON object per SLO snapshot to this file",
    )
    serve.add_argument(
        "--prom-out", default=None, metavar="PATH",
        help="rewrite this file with Prometheus text format per snapshot",
    )
    serve.add_argument(
        "--report-out", default=None, metavar="PATH",
        help="write the final per-model SLO RunReports as JSON",
    )

    cluster = sub.add_parser(
        "cluster",
        help="cluster DSM chaos: a fault at every protocol step, or one "
        "audited case under --plan",
        epilog=preset_catalog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    cluster.add_argument(
        "--models", type=_parse_models, default=MODELS,
        help="comma-separated subset of: " + ",".join(MODELS),
    )
    cluster.add_argument(
        "--nodes", type=int, default=3, metavar="N",
        help="cluster members, each a full kernel (default 3, minimum 2)",
    )
    cluster.add_argument(
        "--pages", type=int, default=4,
        help="shared pages in the one-address-space segment (default 4)",
    )
    cluster.add_argument(
        "--accesses", type=int, default=32,
        help="scripted page accesses spread across the nodes (default 32)",
    )
    cluster.add_argument(
        "--seed", default="7",
        help="single seed ('7') or inclusive range ('0..3')",
    )
    cluster.add_argument(
        "--cpus", type=int, default=1, metavar="K",
        help="simulated CPUs per node kernel (default 1)",
    )
    cluster.add_argument(
        "--chaos", choices=("none", "crash", "partition", "both"),
        default="both",
        help="sweep fault kinds: node crashes, link partitions, both "
        "(default), or none (fault-free convergence check only)",
    )
    cluster.add_argument(
        "--stride", type=int, default=1, metavar="S",
        help="inject at every S-th message index instead of every one "
        "(smoke-test thinning; default 1 = exhaustive)",
    )
    cluster.add_argument(
        "--max-steps", type=int, default=None, metavar="M",
        help="cap the swept step set at M evenly spaced indices "
        "(always keeps the first and last)",
    )
    cluster.add_argument(
        "--plan", default=None,
        help="run one audited case under this fault plan instead of "
        "sweeping (a preset name, 'none', or a JSON file — a plan dict "
        "or a cluster repro dump)",
    )
    return parser


def cmd_entry_sizes() -> str:
    params = DEFAULT_PARAMS
    table = format_table(
        ["structure", "entry bits"],
        [
            ["PLB", plb_entry_bits(params)],
            ["translation-only TLB", translation_tlb_entry_bits(params)],
            ["page-group TLB", pagegroup_tlb_entry_bits(params)],
            ["conventional ASID-TLB", conventional_tlb_entry_bits(params)],
        ],
        title="Protection/translation structure entry sizes "
        "(64-bit VA, 36-bit PA, 4K pages)",
    )
    return (
        table
        + f"\n\nPLB entries are {plb_size_advantage(params) * 100:.1f}% smaller "
        "than page-group TLB entries (paper: 'about 25%').\n"
        f"A 16 KB VIVT cache is {(vivt_overhead_ratio() - 1) * 100:.1f}% larger "
        "than VIPT (paper: 'about 10%')."
    )


def cmd_workload(name: str, models: Sequence[str]) -> str:
    if name != "dsm" and name not in WORKLOADS:
        raise CLIError(
            f"unknown workload {name!r}; choose from: "
            + ", ".join(sorted(WORKLOADS) + ["dsm"])
        )
    if name == "dsm":
        result = run_dsm(models=models)
    else:
        result = WORKLOADS[name](models=models)
    summary_rows = [
        [model] + [f"{key}={value}" for key, value in summary.items()]
        for model, summary in result.summary_by_model.items()
    ]
    lines = hot_counter_lines(result.stats_by_model)
    lines.extend(counter_family_lines(result.stats_by_model))
    lines.append("")
    lines.append(result.render())
    if summary_rows and summary_rows[0][1:]:
        lines.append("")
        lines.append("workload summary:")
        for row in summary_rows:
            lines.append("  " + "  ".join(str(cell) for cell in row))
    return "\n".join(lines)


def _parse_rates(
    text: str | None, *, cluster: bool = False
) -> dict[str, float]:
    """Parse ``--rates txn=60,gc=20`` into per-class arrivals/sec.

    Cluster serve has a single workload class (``cluster``: one request
    = a burst of shared-page accesses across live nodes), so in cluster
    mode only that class is accepted and it is the default.
    """
    from repro.serve.driver import DEFAULT_RATES
    from repro.workloads.openloop import SOURCE_CLASSES

    if cluster:
        from repro.cluster.serve import CLUSTER_RATE_PER_SEC

        classes = {"cluster"}
        defaults = {"cluster": CLUSTER_RATE_PER_SEC}
    else:
        classes = set(SOURCE_CLASSES)
        defaults = dict(DEFAULT_RATES)
    if text is None:
        return defaults
    rates: dict[str, float] = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        name, _, value = item.partition("=")
        name = name.strip()
        if name not in classes:
            raise CLIError(
                f"unknown workload class {name!r}; choose from: "
                + ", ".join(sorted(classes))
            )
        try:
            rate = float(value)
        except ValueError:
            raise CLIError(f"bad rate for {name!r}: {value!r}")
        if rate <= 0:
            raise CLIError(f"rate for {name!r} must be positive")
        rates[name] = rate
    if not rates:
        raise CLIError("--rates named no workload classes")
    return rates


def cmd_serve(args: argparse.Namespace) -> int:
    """Run serve mode; exit 1 on unrecovered divergence under chaos."""
    import json

    from repro.analysis.slo import build_slo_reports, format_slo_summary
    from repro.faults.plan import PRESETS
    from repro.serve.driver import ServeConfig, run_serve

    _validate_parallelism(cpus=args.cpus)
    if args.duration < 1:
        raise CLIError("--duration must be >= 1 (virtual milliseconds)")
    if args.cycles_per_us < 1:
        raise CLIError("--cycles-per-us must be >= 1")
    plan = args.plan if args.plan not in (None, "none") else None
    if plan is not None and plan not in PRESETS:
        raise CLIError(
            f"unknown fault preset {plan!r}; choose from: "
            + ", ".join(sorted(PRESETS))
        )
    if args.cluster_nodes and args.cluster_nodes < 2:
        raise CLIError(
            "--cluster-nodes must be >= 2 (or 0 for single-kernel serve)"
        )
    if args.cluster_pages < 1:
        raise CLIError("--cluster-pages must be >= 1")
    _refuse_blind_plan(plan, [args.seed], cluster=args.cluster_nodes > 0)
    config = ServeConfig(
        duration_ms=args.duration,
        seed=args.seed,
        models=tuple(args.models),
        cpus=args.cpus,
        plan=plan,
        rates=_parse_rates(args.rates, cluster=args.cluster_nodes > 0),
        cycles_per_us=args.cycles_per_us,
        cluster_nodes=args.cluster_nodes,
        cluster_pages=args.cluster_pages,
    )
    jsonl_fp = open(args.jsonl_out, "w") if args.jsonl_out else None
    try:
        result = run_serve(config, jsonl_fp=jsonl_fp, prom_path=args.prom_out)
    finally:
        if jsonl_fp is not None:
            jsonl_fp.close()
    print(format_slo_summary(result.summaries))
    if args.report_out:
        reports = build_slo_reports(result.summaries, result.stats)
        with open(args.report_out, "w") as fp:
            json.dump(
                {"reports": [report.to_dict() for report in reports]},
                fp, indent=1, sort_keys=True,
            )
            fp.write("\n")
    if result.diverged:
        detail = ", ".join(
            f"{model}: {count}"
            for model, count in sorted(result.unrecovered.items())
            if count
        )
        print(
            f"serve: unrecovered divergence ({detail} failed requests)",
            file=sys.stderr,
        )
        return 1
    return 0


def _run_traced(name: str, model: str, *, n_shards: int = 1):
    """Build a kernel + workload, run it under a tracer, return the pieces.

    The root span wraps exactly the interval the returned delta covers,
    so ``attributed_cycles(spans) == cycles_for(delta)`` (see
    ARCHITECTURE.md §6).
    """
    from repro.obs.tracer import Tracer

    factories = _workload_factories()
    if name == "dsm":
        raise CLIError(
            "workload 'dsm' builds one kernel per cluster node and cannot "
            "be traced; choose from: " + ", ".join(sorted(factories))
        )
    if name not in factories:
        raise CLIError(
            f"unknown workload {name!r}; choose from: "
            + ", ".join(sorted(factories))
        )
    if model not in MODELS:
        raise CLIError(
            f"unknown model {model!r}; choose from: " + ", ".join(MODELS)
        )
    if n_shards < 1:
        raise CLIError("--shards must be >= 1")
    kernel = Kernel(model, n_shards=n_shards)
    workload = factories[name](kernel)
    tracer = Tracer(kernel.stats)
    kernel.attach_tracer(tracer)
    before = kernel.stats.snapshot()
    with tracer.span(f"run.{name}", model=model):
        workload.run()
    spans = tracer.finish()
    delta = kernel.stats.delta(before)
    return kernel, tracer, spans, delta


def cmd_trace(name: str, model: str, out: str, fmt: str) -> str:
    from repro.obs.export import (
        build_run_report,
        spans_to_jsonl,
        write_chrome_trace,
    )

    # Validate the output path before the (potentially long) run.
    try:
        with open(out, "w"):
            pass
    except OSError as error:
        raise CLIError(f"cannot write --out {out}: {error}")
    kernel, tracer, spans, delta = _run_traced(name, model)
    n_spans = sum(1 for root in spans for _ in root.walk())
    if fmt == "chrome":
        write_chrome_trace(spans, out)
    elif fmt == "jsonl":
        with open(out, "w") as fp:
            n_spans = spans_to_jsonl(spans, fp)
    else:
        report = build_run_report(
            f"trace {name}", model, delta, params=kernel.params, tracer=tracer
        )
        report.write(out)
    return (
        f"traced {name} on {model}: {n_spans} spans, "
        f"{tracer.clock_cycles} weighted cycles -> {out} [{fmt}]"
    )


def cmd_profile(name: str, model: str, top: int, n_shards: int = 1) -> str:
    from repro.obs.metrics import attributed_cycles, hotspots

    if top < 1:
        raise CLIError("--top must be >= 1")
    _, _, spans, delta = _run_traced(name, model, n_shards=n_shards)
    rows = hotspots(spans)
    total = attributed_cycles(spans)
    table_rows = [
        [
            row.name,
            row.count,
            row.exclusive_cycles,
            row.inclusive_cycles,
            f"{row.exclusive_cycles / total * 100:.1f}%" if total else "-",
        ]
        for row in rows[:top]
    ]
    table = format_table(
        ["span", "count", "self cycles", "total cycles", "self %"],
        table_rows,
        title=f"Hotspots: {name} on {model} (top {len(table_rows)} of {len(rows)})",
    )
    footer = (
        f"\n\nattributed cycles (root spans): {total}"
        + f"\nweighted cycles over run delta:  {cycles_for(delta)}"
    )
    families = counter_family_lines({model: delta})
    if families:
        footer += "\n" + "\n".join(families)
    return table + footer


def cmd_replay(path: str, model: str, pages: int) -> str:
    kernel = Kernel(model)
    machine = Machine(kernel)
    from repro.core.rights import Rights

    try:
        with open(path) as fp:
            ops = list(read_trace(fp))
    except (OSError, ValueError) as error:
        raise CLIError(f"cannot replay {path}: {error}")
    pd_ids = sorted(
        {op.pd_id for op in ops}
    )
    # Build domains matching the trace's PD-IDs and one segment covering
    # its addresses.
    vpns = [op.vaddr >> kernel.params.page_bits for op in ops if hasattr(op, "vaddr")]
    if not vpns:
        return "trace contains no references"
    base = min(vpns)
    span = max(vpns) - base + 1
    if span > pages:
        pages = span
    segment = kernel.create_segment("trace", pages, base_vpn=base)
    domains = {}
    for pd_id in pd_ids:
        domain = kernel.create_domain(f"trace-domain-{pd_id}")
        kernel.attach(domain, segment, Rights.RWX)
        domains[pd_id] = domain
    remapped = []
    for op in ops:
        remapped.append(type(op)(**{**op.__dict__, "pd_id": domains[op.pd_id].pd_id}))
    stats = machine.run(remapped)
    return (
        stats.report()
        + f"\n\nweighted cycles: {cycles_for(stats)}"
    )


def _parse_seeds(text: str) -> list[int]:
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            seeds = list(range(int(lo), int(hi) + 1))
            if not seeds:
                raise ValueError("empty range")
            return seeds
        return [int(text)]
    except ValueError:
        raise CLIError(
            f"bad --seed {text!r}: expected an integer or 'LO..HI'"
        )


def cmd_check(
    scenario: str,
    models: Sequence[str],
    seed_text: str,
    n_ops: int,
    plan_text: str,
    cpus: int,
) -> int:
    """The kernel oracle: one status line per seed, a dump on divergence."""
    import json

    from repro.check import SCENARIOS, run_check

    if scenario not in SCENARIOS:
        raise CLIError(
            f"unknown scenario {scenario!r}; choose from: "
            + ", ".join(sorted(SCENARIOS))
        )
    _validate_parallelism(cpus=cpus)
    if n_ops < 1:
        raise CLIError("--ops must be >= 1")
    plan = _parse_plan(plan_text)
    seeds = _parse_seeds(seed_text)
    _refuse_blind_plan(plan, seeds, cluster=False)
    failed = 0
    for seed in seeds:
        result = run_check(
            scenario, seed, tuple(models), n_ops=n_ops, plan=plan, n_cpus=cpus
        )
        settings = [
            f"{result.ops_total} ops",
            f"{result.refs_checked} refs",
            f"models={','.join(models)}",
        ]
        if plan is not None:
            settings.append(f"plan={plan_text}")
        if cpus > 1:
            settings.append(f"cpus={cpus}")
        status = ", ".join(settings) + "".join(
            f"; {model}: " + ", ".join(f"{name}={count}" for name, count in counts.items())
            for model, counts in result.counters.items()
        )
        if result.ok:
            print(f"check {scenario} seed={seed}: OK ({status})")
            continue
        failed += 1
        print(
            f"check {scenario} seed={seed}: DIVERGED ({status}) — "
            + result.divergence.describe()
        )
        print("replayable repro dump:")
        print(json.dumps(result.dump(), indent=2))
    if failed:
        print(f"{failed}/{len(seeds)} seeds diverged", file=sys.stderr)
        return 1
    return 0


def _parse_plan(text: str):
    """Resolve --plan: preset name, 'none', or a JSON file path.

    A JSON file may hold either a bare plan dict (``{"events": ...}``) or
    a full ``repro check`` dump (the ``"plan"`` key of which is used, and
    may be null), so a failing run's dump replays directly.
    """
    import json
    import os

    from repro.faults import PRESETS, FaultPlan

    if text == "none":
        return None
    if text in PRESETS:
        return text
    if os.path.exists(text):
        try:
            with open(text) as fp:
                data = json.load(fp)
        except (OSError, json.JSONDecodeError) as error:
            raise CLIError(f"cannot load --plan {text}: {error}")
        if isinstance(data, dict) and "plan" in data:
            data = data["plan"]
            if data is None:
                return None
        try:
            return FaultPlan.from_dict(data)
        except (KeyError, TypeError, ValueError) as error:
            raise CLIError(f"bad fault plan in {text}: {error}")
    raise CLIError(
        f"unknown --plan {text!r}: expected a preset "
        f"({', '.join(sorted(PRESETS))}), 'none', or a JSON file"
    )


def _refuse_blind_plan(spec, seeds: Sequence[int], *, cluster: bool) -> None:
    """Refuse a --plan none of whose events strikes the system that runs.

    ``spec`` is what :func:`_parse_plan` returns (a preset is generated
    at each seed); a plan with no events passes.
    """
    from repro.faults import FaultInjector, FaultPlan

    system, sites = "a kernel", FaultInjector.SITES
    if cluster:
        from repro.cluster.faults import ClusterInjector

        system, sites = "a cluster", ClusterInjector.SITES
    if isinstance(spec, str):
        plans = [FaultPlan.generate(spec, seed) for seed in seeds]
    else:
        plans = [spec] if spec is not None else []
    for plan in plans:
        struck = sorted({event.site for event in plan.events})
        if struck and set(struck).isdisjoint(sites):
            raise CLIError(
                f"fault plan {plan.name!r} strikes only {', '.join(struck)}, "
                f"which {system} lacks (it has {', '.join(sites)})"
            )


def _contract_status(reports) -> int:
    """1, with each broken §4.1.3 contract on stderr, if any report has one."""
    problems = [problem for report in reports for problem in report.problems]
    for problem in problems:
        print(f"repro: §4.1.3 contract broken: {problem}", file=sys.stderr)
    return 1 if problems else 0


def cmd_smp(cpus: int, models: Sequence[str], domains: int, pages: int) -> int:
    """The §4.1.3 consistency tables; exit 1 if a contract broke."""
    from repro.analysis.consistency import (
        batched_table,
        cluster_smp_table,
        consistency_table,
    )

    _validate_parallelism(cpus=cpus)
    if domains < 1:
        raise CLIError("--domains must be >= 1")
    models = tuple(models)
    try:
        reports = [
            consistency_table(models, n_cpus=cpus, n_domains=domains, pages=pages)
        ]
        if cpus > 1:
            reports.append(batched_table(models, n_cpus=cpus, n_domains=domains))
            # Single-node rows of the cluster x SMP matrix: range verbs
            # cost zero wire messages but still fan out node-local IPIs.
            reports.append(
                cluster_smp_table(
                    models,
                    nodes_axis=(1,),
                    cpus_axis=tuple(m for m in (1, 2, 4) if m <= cpus),
                )
            )
    except ValueError as error:
        raise CLIError(str(error))
    print("\n\n".join(report.text for report in reports))
    return _contract_status(reports)


#: The counters a cluster case's status line leads with (nonzero only).
_CLUSTER_LINE_COUNTERS = (
    "cluster.msg.sent",
    "cluster.retries",
    "cluster.handoffs",
    "cluster.node_deaths",
    "cluster.rejoins",
    "faults.injected",
    "faults.recovered",
)


def _recovery_percentiles(cycles: Sequence[int]) -> str | None:
    """``p50/p99/max`` of declare-dead recovery times, in cycles."""
    from repro.cluster import recovery_percentile

    if not cycles:
        return None
    ordered = sorted(cycles)
    return (
        f"{len(ordered)} episodes, "
        f"cycles p50={recovery_percentile(ordered, 0.50)} "
        f"p99={recovery_percentile(ordered, 0.99)} max={ordered[-1]}"
    )


def cmd_cluster(args: argparse.Namespace) -> int:
    """Cluster DSM chaos: full sweep, or one audited case under --plan.

    The sweep first prints the N x M consistency matrix, and exits 1 if
    that matrix broke its §4.1.3 contract.
    """
    import json

    from repro.cluster.chaos import run_cluster_case, run_cluster_sweep
    from repro.faults import FaultPlan

    # A scripted access averages two-to-three interconnect messages;
    # size generated preset plans so their event indices land inside
    # the actual message stream instead of past its end.
    messages_per_access = 2

    _validate_parallelism(cpus=args.cpus)
    if args.nodes < 2:
        raise CLIError("--nodes must be >= 2")
    if args.pages < 1 or args.accesses < 1:
        raise CLIError("--pages and --accesses must be >= 1")
    if args.stride < 1:
        raise CLIError("--stride must be >= 1")
    if args.max_steps is not None and args.max_steps < 2:
        raise CLIError("--max-steps must be >= 2 (keeps first and last)")
    seeds = _parse_seeds(args.seed)

    if args.plan is not None:
        plan_spec = _parse_plan(args.plan)
        _refuse_blind_plan(plan_spec, seeds, cluster=True)
        failed = 0
        for model in args.models:
            for seed in seeds:
                if isinstance(plan_spec, str):
                    plan = FaultPlan.generate(
                        plan_spec, seed,
                        n_ops=args.accesses * messages_per_access,
                    )
                else:
                    plan = plan_spec
                case = run_cluster_case(
                    model, seed, nodes=args.nodes, pages=args.pages,
                    accesses=args.accesses, plan=plan, n_cpus=args.cpus,
                )
                counters = ", ".join(
                    f"{name}={count}"
                    for name, count in sorted(case.counters.items())
                    if name in _CLUSTER_LINE_COUNTERS and count
                )
                status = case.verdict.upper() if not case.ok else case.verdict
                print(
                    f"cluster case model={model} seed={seed} "
                    f"plan={args.plan}: {status}"
                    + (f" — {case.detail}" if case.detail else "")
                    + (f" ({counters})" if counters else "")
                )
                recovery = _recovery_percentiles(case.recovery_cycles)
                if recovery:
                    print(f"  recovery: {recovery}")
                if not case.ok:
                    failed += 1
                    print("replayable repro dump:")
                    print(json.dumps(case.dump(), indent=2))
        if failed:
            print(f"{failed} cluster case(s) diverged", file=sys.stderr)
            return 1
        return 0

    from repro.analysis.consistency import cluster_smp_table

    # The N x M consistency matrix: wire messages plus node-local IPIs
    # for a multi-page DSM invalidation at every composed scale up to
    # the requested --nodes/--cpus.
    report = cluster_smp_table(
        tuple(args.models),
        nodes_axis=tuple(n for n in (1, 2, 4) if n <= args.nodes),
        cpus_axis=tuple(m for m in (1, 2, 4) if m <= args.cpus),
    )
    print(report.text)
    print()
    broken = _contract_status([report])

    kinds = {
        "crash": ("node_crash",),
        "partition": ("partition",),
        "both": ("node_crash", "partition"),
        "none": (),
    }[args.chaos]
    failed = 0
    for seed in seeds:
        if not kinds:
            # Fault-free convergence check only.
            for model in args.models:
                case = run_cluster_case(
                    model, seed, nodes=args.nodes, pages=args.pages,
                    accesses=args.accesses, n_cpus=args.cpus,
                )
                batched = case.counters.get("cluster.msg.batched_pages", 0)
                print(
                    f"cluster baseline model={model} seed={seed}: "
                    f"{case.verdict} ({case.messages} messages, "
                    f"{case.interconnect_cycles} interconnect cycles"
                    + (f", {batched} pages coalesced" if batched else "")
                    + ")"
                )
                if not case.ok:
                    failed += 1
                    print("replayable repro dump:")
                    print(json.dumps(case.dump(), indent=2))
            continue
        sweep = run_cluster_sweep(
            tuple(args.models), seed=seed, nodes=args.nodes,
            pages=args.pages, accesses=args.accesses, kinds=kinds,
            stride=args.stride, max_steps=args.max_steps, n_cpus=args.cpus,
        )
        baseline = " ".join(
            f"{model}={count}"
            for model, count in sorted(sweep.baseline_messages.items())
        )
        print(
            f"cluster sweep seed={seed} kinds={','.join(kinds)} "
            f"models={','.join(args.models)}:"
        )
        print(f"  baseline messages: {baseline or '(baseline diverged)'}")
        print(
            f"  cases={sweep.cases} converged={sweep.converged} "
            f"unrecoverable={sweep.unrecoverable} "
            f"diverged={len(sweep.diverged)}"
        )
        for model in sorted(sweep.recovery_cycles):
            recovery = _recovery_percentiles(sweep.recovery_cycles[model])
            print(f"  recovery {model}: {recovery}")
        for case in sweep.unrecoverable_cases:
            plan_name = case.plan.name if case.plan is not None else "none"
            print(
                f"  unrecoverable (explicit): model={case.model} "
                f"plan={plan_name} — {case.detail}"
            )
        if not sweep.ok:
            failed += len(sweep.diverged)
            print("replayable repro dumps (silent divergence):")
            for case in sweep.diverged[:3]:
                print(json.dumps(case.dump(), indent=2))
            if len(sweep.diverged) > 3:
                print(f"  ... and {len(sweep.diverged) - 3} more")
    if failed:
        print(f"{failed} cluster case(s) diverged", file=sys.stderr)
        return 1
    return broken


def cmd_crash_recover(models: Sequence[str]) -> int:
    import json

    from repro.faults.chaos import run_crash_recover

    result = run_crash_recover(tuple(models))
    if result.ok:
        print(
            f"crash-recover: OK ({result.cases} verbs, "
            f"{result.crash_points} crash points, "
            f"models={','.join(models)})"
        )
        return 0
    print(
        f"crash-recover: FAIL — {len(result.failures)} of "
        f"{result.crash_points} crash points did not recover"
    )
    print(json.dumps(result.dump(), indent=2))
    return 1


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except CLIError as error:
        print(f"repro: error: {error}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "figure1":
        print(render_figure1())
    elif args.command == "figure2":
        print(render_figure2())
    elif args.command == "entry-sizes":
        print(cmd_entry_sizes())
    elif args.command == "table1":
        print(full_table1(models=args.models))
    elif args.command == "summary":
        print(render_summary(run_summary(models=args.models)))
    elif args.command == "all":
        banner = "=" * 72
        print(banner + "\nFigure 1\n" + banner)
        print(render_figure1())
        print("\n" + banner + "\nFigure 2\n" + banner)
        print(render_figure2())
        print("\n" + banner + "\nEntry sizes (§3.2.1 / §4)\n" + banner)
        print(cmd_entry_sizes())
        print("\n" + banner + "\nTable 1 (measured)\n" + banner)
        print(full_table1(models=args.models))
        print("\n" + banner + "\nCross-workload summary\n" + banner)
        print(render_summary(run_summary(models=args.models)))
    elif args.command == "workload":
        print(cmd_workload(args.name, args.models))
    elif args.command == "trace":
        print(cmd_trace(args.name, args.model, args.out, args.format))
    elif args.command == "profile":
        print(cmd_profile(args.name, args.model, args.top, args.shards))
    elif args.command == "replay":
        print(cmd_replay(args.trace, args.model, args.pages))
    elif args.command == "check":
        return cmd_check(
            args.scenario, args.models, args.seed, args.ops, args.plan,
            args.cpus,
        )
    elif args.command == "crash-recover":
        return cmd_crash_recover(args.models)
    elif args.command == "smp":
        return cmd_smp(args.cpus, args.models, args.domains, args.pages)
    elif args.command == "serve":
        return cmd_serve(args)
    elif args.command == "cluster":
        return cmd_cluster(args)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
