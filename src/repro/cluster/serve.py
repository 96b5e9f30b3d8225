"""Serving one address space from a fault-injected cluster.

The open-loop serve driver (:mod:`repro.serve.driver`) normally runs
one kernel per model.  With ``--cluster-nodes N`` it runs a
:class:`ClusterServer` instead: the same request loop
(:class:`~repro.serve.driver.RequestServer`), virtual-time arrival
schedule, SLO snapshots and JSONL stream, but each request is a burst
of shared-page accesses spread across the live nodes of a
:class:`~repro.cluster.dsm.ClusterDSM`, and the armed fault plan
strikes the *interconnect* (node crashes, partitions, message loss)
rather than one kernel's caches.

What this measures — the headline robustness numbers:

* **recovery_time_us** — the live collector pairs each
  ``faults.injected`` (the moment the injector killed a node / cut a
  link) with the next ``faults.recovered`` (retry succeeded, partition
  rerouted, or declare-dead + handoff completed), in virtual time.
* **sustained refs/sec under fault** — the request stream never stops
  while recovery runs, so the summary's sustained rates show what the
  cluster kept serving through the failures.

A request is priced from its one ``serve.cluster`` span, which watches
the cluster's one store, plus the interconnect's virtual clock: cycles
spent on the wire and waiting out timeouts and retries during a request
are charged to that request, which is how a node death shows up as a
latency spike in the p99/p999 sketches before the handoff brings
service time back down.  Wire time is not a counter, so a request's
span equals its price minus the wire time it waited.
"""

from __future__ import annotations

import random

from repro.cluster.dsm import ClusterDSM, recovery_percentile
from repro.cluster.faults import ClusterInjector
from repro.core.rights import AccessType
from repro.faults.errors import ClusterUnavailableError, HardwareFault
from repro.faults.plan import FaultPlan
from repro.obs.live import LiveCollector
from repro.obs.tracer import Tracer
from repro.os.kernel import SegmentationViolation
from repro.serve.driver import RequestServer

#: Default arrival rate for the single ``cluster`` workload class.
CLUSTER_RATE_PER_SEC = 80.0

#: Estimated interconnect messages per request, for sizing the fault
#: plan's event indices to the expected message stream.
MESSAGES_PER_REQUEST = 12


class ClusterRequestSource:
    """One request = a burst of shared-page touches across live nodes.

    Individual access failures inside a burst are absorbed (the
    protocol already counted and recovered them); the request as a
    whole fails only when *no* access got through — the cluster was
    effectively unavailable for its service window.
    """

    name = "cluster"
    #: Shared-page touches in one request.
    BURST = 12

    def __init__(self, cluster: ClusterDSM, seed: str) -> None:
        self.cluster = cluster
        self.requests = 0
        self._rng = random.Random(f"cluster-serve:{seed}")

    def execute(self) -> int:
        cluster = self.cluster
        rng = self._rng
        issued = 0
        failed = 0
        for _ in range(self.BURST):
            actors = cluster._actors()
            if not actors:
                raise ClusterUnavailableError("no live nodes to serve")
            node = actors[rng.randrange(len(actors))]
            vpn = cluster.vpns[rng.randrange(len(cluster.vpns))]
            access = (
                AccessType.WRITE if rng.random() < 0.4 else AccessType.READ
            )
            try:
                node.machine.touch(
                    node.domain, cluster.params.vaddr(vpn), access
                )
            except (SegmentationViolation, HardwareFault):
                failed += 1
                continue
            issued += 1
        self.requests += 1
        if issued == 0:
            raise ClusterUnavailableError(
                f"all {failed} accesses in the burst failed"
            )
        return issued

    def recover(self) -> None:
        """Give the failure detector and scrubber a chance to catch up."""
        for _ in range(2):
            self.cluster.tick()
        self.cluster.reconcile()


class ClusterServer(RequestServer):
    """The serve loop of :class:`~repro.serve.driver.RequestServer`
    over an N-node cluster instead of a single kernel.

    It adds the interconnect's virtual clock to each request's price
    and the recovery episodes to the summary; a failed attempt retries
    with no repair beyond the source's own ``recover``.
    """

    def __init__(self, model: str, config) -> None:
        self.model = model
        self.config = config
        self.cluster = ClusterDSM(
            model,
            nodes=config.cluster_nodes,
            pages=config.cluster_pages,
            seed=config.seed,
            n_cpus=config.cpus,
            auto_rejoin=True,
        )
        self.collector = LiveCollector(model)
        self.tracer = Tracer(self.cluster.stats, metrics=self.collector)
        self.sources = {
            name: ClusterRequestSource(
                self.cluster, f"{config.seed}:{name}"
            )
            for name in sorted(config.rates)
        }
        self.injector: ClusterInjector | None = None
        if config.plan and config.plan != "none":
            plan = FaultPlan.generate(
                config.plan,
                config.seed,
                n_ops=config.expected_requests() * MESSAGES_PER_REQUEST,
            )
            self.injector = ClusterInjector(plan)
            self.injector.arm(self.cluster)
        self._start(self.cluster)

    def _clock(self) -> int:
        """The interconnect's virtual clock: a request's wire time and
        timeouts bill to it."""
        return self.cluster.net.clock

    def scrub_tick(self) -> None:
        """The periodic maintenance pulse: heartbeats, flush, rejoin."""
        self.cluster.tick()

    def summary_extras(self) -> dict[str, object]:
        """Cluster-only summary fields merged into the SLO summary.

        ``recovery_time_us`` in the base summary pairs injection and
        recovery at *poll* granularity, which for the cluster is often
        the same request (recovery runs synchronously inside the
        failing RPC) and reads as zero.  The protocol itself measures
        each declare-dead episode on the interconnect's virtual clock;
        these are the honest recovery-time percentiles.
        """
        episodes = sorted(self.cluster.recovery_cycles)
        cycles = {
            name: recovery_percentile(episodes, q)
            for name, q in (("min", 0.0), ("max", 1.0), ("p50", 0.5), ("p99", 0.99))
        }
        us = self.config.cycles_per_us
        return {
            "cluster_recovery": {
                "episodes": len(episodes),
                "cycles": cycles,
                "us": {name: -(-value // us) for name, value in cycles.items()},
            },
            "cluster_nodes": self.config.cluster_nodes,
        }
