"""The open-loop serve driver: virtual time, continuous chaos, live SLOs.

One :class:`ModelServer` per protection model runs the full duration on
its own kernel (:class:`~repro.cluster.serve.ClusterServer` serves a
cluster instead).  Both run one request loop, :class:`RequestServer`,
so a request is priced in one place.  Time is *virtual*: a seeded
Poisson schedule says when requests arrive (microseconds), each
request's simulated-cycle cost is converted to service time at
``cycles_per_us``, and a single-queue server model (start =
max(arrival, previous completion)) yields queueing delay under load.
No wall clock enters any output, so two runs with the same seed
produce byte-identical JSONL streams and SLO summaries.

Chaos runs continuously: a :class:`~repro.faults.plan.FaultPlan` sized
to the expected request count is armed for the whole run and ticked once
per request; the scrubber fires as a periodic background repair loop on
the same virtual clock.  A request that dies with a protection or
hardware fault is retried once after an immediate scrub; a second death
is an *unrecovered divergence*, reported per class and reflected in the
process exit status.

Observability rides on the span tracer: each model's kernel gets a
verb-level :class:`~repro.obs.tracer.Tracer` (``references=False``:
spans per request and per kernel verb, none per reference) whose
``metrics`` sink is the model's :class:`~repro.obs.live.LiveCollector`,
so every traced verb feeds the per-verb latency sketches at span exit.
The reference path stays unwrapped, so live telemetry adds no
per-reference work; per-reference spans are what ``repro trace``
records.  A request is one ``serve.<class>`` span, covering both
attempts and the repair between them, priced from that span: its
weighted cycles plus whatever the server's clock advanced (a cluster's
wire time).  Every CPU charges the kernel's one store, which the tracer
watches, so on a kernel each span sketch equals its per-class sketch,
retries and unrecovered requests included: a failed request's cycles
were spent, so it is priced like any other, though only completed
requests count as requests.  Span forests are dropped after every
request — the collector has already consumed them — so a long-running
server holds no per-request state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import IO

from repro.faults.errors import HardwareFault
from repro.faults.plan import FaultInjector, FaultPlan
from repro.faults.scrub import Scrubber
from repro.obs.live import LiveCollector
from repro.obs.tracer import Tracer
from repro.os.kernel import Kernel, SegmentationViolation
from repro.serve.exporters import JsonlExporter, PrometheusExporter
from repro.workloads.openloop import arrival_schedule, make_sources

#: Default open-loop arrival rates, requests per virtual second.
DEFAULT_RATES: dict[str, float] = {
    "txn": 60.0,
    "gc": 20.0,
    "rpc": 150.0,
    "checkpoint": 12.0,
}

#: SLO snapshot period, virtual ms.
SNAPSHOT_EVERY_MS = 100
#: Background scrubber period, virtual ms.
SCRUB_EVERY_MS = 50


@dataclass
class ServeConfig:
    """Everything a serve run depends on (all of it seeds determinism)."""

    duration_ms: int = 1000
    seed: int = 0
    models: tuple[str, ...] = ("plb",)
    cpus: int = 1
    plan: str | None = None
    rates: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_RATES))
    #: Virtual CPU speed: simulated cycles consumed per virtual µs.
    cycles_per_us: int = 200
    #: With > 0, serve a fault-tolerant DSM cluster of this many nodes
    #: (one address space across machines) instead of a single kernel;
    #: the fault plan then strikes the interconnect.  See
    #: :mod:`repro.cluster.serve`.
    cluster_nodes: int = 0
    #: Shared pages per cluster (cluster mode only).
    cluster_pages: int = 8

    @property
    def duration_us(self) -> int:
        return self.duration_ms * 1000

    def expected_requests(self) -> int:
        """Upper estimate of per-model request count, for chaos sizing."""
        per_sec = sum(self.rates.values())
        return int(per_sec * self.duration_ms / 1000 * 1.5) + 32


@dataclass
class ServeResult:
    """What one serve run produced (per model)."""

    summaries: dict[str, dict] = field(default_factory=dict)
    stats: dict[str, object] = field(default_factory=dict)
    snapshots: int = 0
    unrecovered: dict[str, int] = field(default_factory=dict)

    @property
    def diverged(self) -> bool:
        return any(self.unrecovered.values())


class RequestServer:
    """The one request loop both servers run; a request is priced here.

    A server's constructor sets ``model``, ``config``, ``collector``,
    ``tracer``, ``sources`` and ``injector``, then calls :meth:`_start`
    with its backend: a :class:`~repro.os.kernel.Kernel` or a
    :class:`~repro.cluster.dsm.ClusterDSM`; its one store,
    ``backend.stats``, is what the tracer watches.
    """

    #: Request-clock chaos, called with the op index before each
    #: request; None when the fault plan strikes elsewhere.
    chaos_tick = None

    def _start(self, backend) -> None:
        """Take the counter baseline once construction is done.

        Construction is noisy: attaching the workload segments on an
        SMP kernel broadcasts shootdowns, and arming chaos may touch
        counters too.  Seeding the collector's watched baseline from
        the post-construction counters means the first poll reports
        only movement that requests caused.
        """
        if self.tracer.stats is not backend.stats:
            # A request is priced from its span.
            raise ValueError("the request tracer must watch the backend's store")
        self.backend = backend
        self.busy_until_us = 0
        self.op_index = 0
        self.unrecovered = 0
        self._baseline = backend.stats.snapshot()
        self.collector.seed_counters(backend.stats.counts_view())

    def handle(self, t_us: int, klass: str) -> None:
        """Serve one arrival: tick chaos, execute, retry-or-fail, poll.

        One ``serve.<class>`` span covers both attempts and the repair
        between them; the price is its cycles plus whatever
        :meth:`_clock` advanced.
        """
        source = self.sources[klass]
        if self.chaos_tick is not None:
            self.chaos_tick(self.op_index)
        self.op_index += 1
        start_us = max(t_us, self.busy_until_us)
        clock_before = self._clock()
        with self.tracer.span(f"serve.{klass}", t_us=t_us) as span:
            refs = self._execute(source, klass, start_us)
        cycles = span.cycles + self._clock() - clock_before
        service_us = max(1, -(-cycles // self.config.cycles_per_us))
        self.busy_until_us = start_us + service_us
        self.collector.observe_request(klass, cycles, refs)
        self.collector.poll(self.busy_until_us, self.backend.stats.counts_view())
        # Spans were consumed by the collector at exit; drop the forest.
        self.tracer.roots.clear()

    def _execute(self, source, klass: str, start_us: int) -> int | None:
        try:
            return source.execute()
        except (SegmentationViolation, HardwareFault):
            source.recover()
            self._before_retry()
            self.collector.observe_retry(klass, start_us)
        try:
            return source.execute()
        except (SegmentationViolation, HardwareFault) as exc:
            source.recover()
            self.collector.observe_failure(klass, start_us, type(exc).__name__)
            self.unrecovered += 1
            return None

    def _before_retry(self) -> None:
        """Repair run between a failed attempt and its retry."""

    def _clock(self) -> int:
        """Cycles spent outside the counters, as a running clock."""
        return 0

    def summary_extras(self) -> dict[str, object]:
        """Server-specific fields merged into the SLO summary."""
        return {}

    def finish(self) -> None:
        if self.injector is not None:
            self.injector.disarm()

    def run_delta(self):
        """The whole run's counter movement (every CPU and node)."""
        return self.backend.stats.delta(self._baseline)


class ModelServer(RequestServer):
    """One protection model served under open-loop load on one kernel."""

    def __init__(self, model: str, config: ServeConfig) -> None:
        self.model = model
        self.config = config
        self.kernel = Kernel(model, n_cpus=config.cpus)
        self.collector = LiveCollector(model)
        # Verb-level tracing (see the module docstring).
        self.tracer = Tracer(
            self.kernel.stats, references=False, metrics=self.collector
        )
        self.kernel.attach_tracer(self.tracer)
        self.sources = make_sources(
            self.kernel, sorted(config.rates), config.seed
        )
        self.scrubber = Scrubber(self.kernel)
        self.injector: FaultInjector | None = None
        if config.plan and config.plan != "none":
            plan = FaultPlan.generate(
                config.plan, config.seed, n_ops=config.expected_requests()
            )
            self.injector = FaultInjector(plan)
            self.injector.arm(self.kernel)
            self.chaos_tick = self.injector.tick
        self._start(self.kernel)

    def _before_retry(self) -> None:
        self.scrubber.scrub()

    def scrub_tick(self) -> None:
        if self.injector is not None:
            self.injector.flush_delayed()
        self.scrubber.scrub()


# ------------------------------------------------------------------- #
# The event loop


def run_serve(
    config: ServeConfig,
    *,
    jsonl_fp: IO[str] | None = None,
    prom_path: str | None = None,
) -> ServeResult:
    """Serve every configured model for the full virtual duration."""
    result = ServeResult()
    jsonl = JsonlExporter(jsonl_fp) if jsonl_fp is not None else None
    prom = PrometheusExporter(prom_path) if prom_path is not None else None

    for model in config.models:
        if config.cluster_nodes > 0:
            # Lazy import: repro.cluster pulls in the whole cluster
            # stack, which non-cluster serve runs never need.
            from repro.cluster.serve import ClusterServer

            server = ClusterServer(model, config)
        else:
            server = ModelServer(model, config)
        collector = server.collector
        duration = config.duration_us
        snap_every = SNAPSHOT_EVERY_MS * 1000
        scrub_every = SCRUB_EVERY_MS * 1000
        next_snap = snap_every
        next_scrub = scrub_every
        last_snap = 0

        def fire_snapshot(at_us: int) -> None:
            nonlocal last_snap
            snapshot = collector.snapshot(at_us, at_us - last_snap)
            last_snap = at_us
            result.snapshots += 1
            if jsonl is not None:
                jsonl.write(snapshot)
            if prom is not None:
                prom.update(model, snapshot)

        for t_us, klass in arrival_schedule(config.rates, config.seed, duration):
            while min(next_scrub, next_snap) <= t_us:
                if next_scrub <= next_snap:
                    server.scrub_tick()
                    next_scrub += scrub_every
                else:
                    fire_snapshot(next_snap)
                    next_snap += snap_every
            server.handle(t_us, klass)
        # Tail of the run, after the last arrival: both timers keep
        # firing out to ``duration`` in time order (scrub first on ties,
        # same as above), so delayed fault delivery and background
        # repair hold their SCRUB_EVERY_MS cadence even when arrivals
        # end early.  Previously only snapshots fired here and the
        # scrubber starved until the end-of-run drain.
        while True:
            scrub_due = next_scrub <= duration
            snap_due = next_snap < duration
            if scrub_due and (not snap_due or next_scrub <= next_snap):
                server.scrub_tick()
                next_scrub += scrub_every
            elif snap_due:
                fire_snapshot(next_snap)
                next_snap += snap_every
            else:
                break
        if next_scrub - scrub_every != duration:
            # The cadence never landed exactly on the run boundary: one
            # final off-cadence scrub drains delayed fault messages so
            # the closing snapshot sees a fully-scrubbed machine.
            server.scrub_tick()
        # Drain counter movement from the final scrub into the event
        # stream, then close the run with a snapshot at the boundary.
        collector.poll(duration, server.backend.stats.counts_view())
        fire_snapshot(duration)
        server.finish()

        summary = collector.slo_summary(duration)
        summary.update(server.summary_extras())
        result.summaries[model] = summary
        result.stats[model] = server.run_delta()
        result.unrecovered[model] = server.unrecovered

    return result
