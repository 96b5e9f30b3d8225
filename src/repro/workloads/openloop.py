"""Open-loop load generation for serve mode.

Batch workloads (:mod:`repro.workloads.txn` and friends) run to
completion as fast as the simulator can go — a *closed loop*, where the
next request waits for the previous one.  Serve mode needs the opposite:
requests arrive on their own clock whether or not the server is keeping
up, which is what makes tail latency and recovery time meaningful.

Two pieces live here:

* :class:`ArrivalProcess` — a seeded Poisson arrival stream in virtual
  microseconds.  Each workload class gets its own stream, seeded by
  ``f"{seed}:{name}"`` so streams are independent but the whole schedule
  is a pure function of the serve seed.
* Request sources — thin adapters that decompose each batch workload
  into bounded per-request units (one transaction, one mutator burst,
  one RPC, one checkpoint burst) against long-lived workload state, so a
  server can run them indefinitely without unbounded growth.  Each
  returns the number of simulated references it issued, and knows how to
  shed partial state after a failed request so the next one starts clean.
"""

from __future__ import annotations

import heapq
import random
from typing import Iterator

from repro.core.rights import Rights
from repro.os.kernel import Kernel
from repro.workloads.checkpoint import CheckpointConfig, ConcurrentCheckpoint
from repro.workloads.gc import ConcurrentGC, GCConfig
from repro.workloads.rpc import RPCConfig, RPCWorkload
from repro.workloads.tracegen import RefPattern
from repro.workloads.txn import TransactionalVM, TxnConfig, _Conflict


# --------------------------------------------------------------------- #
# Arrival processes


class ArrivalProcess:
    """A seeded Poisson arrival stream for one workload class."""

    def __init__(self, name: str, rate_per_sec: float, seed: int) -> None:
        if rate_per_sec <= 0:
            raise ValueError("arrival rate must be positive")
        self.name = name
        self.rate_per_sec = rate_per_sec
        self._rng = random.Random(f"{seed}:{name}")
        self._clock_us = 0.0

    def next_arrival_us(self) -> int:
        """The next arrival time, in integer virtual microseconds."""
        self._clock_us += self._rng.expovariate(self.rate_per_sec) * 1_000_000
        return int(self._clock_us)


def arrival_schedule(
    rates: dict[str, float], seed: int, duration_us: int
) -> Iterator[tuple[int, str]]:
    """Merge per-class arrival streams into one ``(t_us, class)`` order.

    Ties break on class name, so the schedule is a deterministic function
    of ``(rates, seed)`` alone.
    """
    processes = {
        name: ArrivalProcess(name, rate, seed)
        for name, rate in sorted(rates.items())
    }
    heap: list[tuple[int, str]] = []
    for name, process in processes.items():
        first = process.next_arrival_us()
        if first < duration_us:
            heapq.heappush(heap, (first, name))
    while heap:
        t_us, name = heapq.heappop(heap)
        yield t_us, name
        following = processes[name].next_arrival_us()
        if following < duration_us:
            heapq.heappush(heap, (following, name))


# --------------------------------------------------------------------- #
# Request sources


class RequestSource:
    """One workload class decomposed into bounded per-request units."""

    name = "base"

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel
        self.requests = 0

    def execute(self) -> int:
        """Run one request; returns the simulated references issued."""
        raise NotImplementedError

    def recover(self) -> None:
        """Shed partial request state after a failure (best effort)."""


class TxnRequests(RequestSource):
    """One request = one transaction over a pooled protection domain.

    The batch workload creates a fresh domain per transaction; a server
    doing that forever would grow the authority without bound, so the
    source pools a small set of domains and cycles through them — commit
    returns a domain's pages to the inaccessible state, which is exactly
    the fresh-transaction precondition.
    """

    name = "txn"
    #: Pooled transaction domains.
    POOL = 4

    def __init__(self, kernel: Kernel, seed: int) -> None:
        super().__init__(kernel)
        config = TxnConfig(
            db_pages=48, touches_per_txn=16, concurrent=self.POOL, seed=seed
        )
        self.workload = TransactionalVM(kernel, config)
        self.pool = [
            kernel.create_domain(f"serve-txn-{slot}") for slot in range(self.POOL)
        ]
        for domain in self.pool:
            kernel.attach(domain, self.workload.db, Rights.NONE)
        self._slot = 0

    def execute(self) -> int:
        workload = self.workload
        domain = self.pool[self._slot]
        slot = self._slot
        self._slot = (self._slot + 1) % len(self.pool)
        workload._active[domain.pd_id] = domain
        plan = workload._touch_plan(slot, len(self.pool))
        machine = workload.machine
        params = self.kernel.params
        try:
            for vpn, access in plan:
                try:
                    machine.touch(domain, params.vaddr(vpn), access)
                except _Conflict:
                    pass
        finally:
            workload.commit(domain)
        self.requests += 1
        return len(plan)

    def recover(self) -> None:
        # Release any locks stranded by a mid-request failure.
        for domain in self.pool:
            if domain.pd_id in self.workload._active:
                self.workload.commit(domain)


class GcRequests(RequestSource):
    """One request = one mutator burst; a flip every ``FLIP_EVERY``.

    The batch flip leaks the retired from-space (it is detached but never
    destroyed — fine for four collections, fatal for a server), so the
    source destroys each retired space once the flip has detached it.
    """

    name = "gc"
    FLIP_EVERY = 8

    def __init__(self, kernel: Kernel, seed: int) -> None:
        super().__init__(kernel)
        config = GCConfig(heap_pages=24, mutator_refs_per_cycle=160, seed=seed)
        self.workload = ConcurrentGC(kernel, config)

    def execute(self) -> int:
        workload = self.workload
        if self.requests % self.FLIP_EVERY == 0:
            garbage = workload.from_space
            workload.flip()
            if garbage is not None:
                self.kernel.destroy_segment(garbage)
        workload.mutate()
        self.requests += 1
        return workload.config.mutator_refs_per_cycle


class RpcRequests(RequestSource):
    """One request = one complete RPC (marshal, switch, serve, return)."""

    name = "rpc"

    def __init__(self, kernel: Kernel, seed: int) -> None:
        super().__init__(kernel)
        self.workload = RPCWorkload(kernel, RPCConfig(seed=seed))
        config = self.workload.config
        self._refs_per_call = 4 * config.arg_pages + 2 * (
            config.private_segments * config.private_touches
        )

    def execute(self) -> int:
        self.workload.call_once()
        self.requests += 1
        return self._refs_per_call


class CheckpointRequests(RequestSource):
    """One request = one application burst plus a background sweep step.

    Every ``EPOCH_EVERY`` requests the server opens a new checkpoint
    epoch (restrict-access over the whole segment).
    """

    name = "checkpoint"
    EPOCH_EVERY = 12
    #: References in one application burst.
    BURST_REFS = 96

    def __init__(self, kernel: Kernel, seed: int) -> None:
        super().__init__(kernel)
        config = CheckpointConfig(segment_pages=32, seed=seed)
        self.workload = ConcurrentCheckpoint(kernel, config)
        self._pattern = RefPattern(write_fraction=config.write_fraction)

    def execute(self) -> int:
        workload = self.workload
        if self.requests % self.EPOCH_EVERY == 0:
            workload.begin_checkpoint()
        refs = workload.gen.refs(
            workload.app.pd_id, workload.segment, self.BURST_REFS, self._pattern
        )
        issued = 0
        for ref in refs:
            workload.machine.touch(workload.app, ref.vaddr, ref.access)
            issued += 1
        if workload._pending:
            workload._background_step()
        self.requests += 1
        return issued


#: Construction order is the deterministic round-robin CPU assignment
#: order in serve mode.
SOURCE_CLASSES: dict[str, type[RequestSource]] = {
    "txn": TxnRequests,
    "gc": GcRequests,
    "rpc": RpcRequests,
    "checkpoint": CheckpointRequests,
}


def make_sources(
    kernel: Kernel, classes: list[str], seed: int
) -> dict[str, RequestSource]:
    """Build one request source per class, round-robin across CPUs.

    Each source's machine is pinned to the CPU that is current at
    construction time, so with ``--cpus K`` the classes spread across
    contexts and protection traffic exercises the shootdown bus.
    """
    sources: dict[str, RequestSource] = {}
    for index, name in enumerate(classes):
        source_cls = SOURCE_CLASSES.get(name)
        if source_cls is None:
            raise ValueError(f"unknown workload class: {name!r}")
        kernel.set_current_cpu(index % kernel.n_cpus)
        sources[name] = source_cls(kernel, seed)
    kernel.set_current_cpu(0)
    return sources
