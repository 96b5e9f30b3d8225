"""Streaming collectors for serve mode: live quantiles, rates, events.

Batch observability (``repro trace`` and ``profile``) keeps every span
and summarizes after the run.  A long-running server cannot afford
either the memory or the "after the run" part, so this module provides
the streaming equivalents:

* :class:`P2Quantile` — the Jain & Chlamtac P² algorithm: one quantile
  estimated online from five markers, no sample buffer, and — because it
  involves no randomness — deterministic for a given input sequence.
* :class:`LatencySketch` — count/total/min/max plus p50/p99/p999 P²
  sketches, the unit of SLO accounting.  Serve mode keys one sketch per
  (model, Table 1 verb) from traced spans and one per workload class
  from request latencies.
* :class:`LiveCollector` — the per-model registry.  It is the tracer's
  span sink (its ``metrics=``, fed ``observe_span`` at every span
  exit), accepts whole-request observations from the serve
  driver, and derives an *event stream* (fault injected / recovered,
  shootdown, scrubber repair) by polling counter deltas on the served
  backend's store.  Recovery time under fault is measured by pairing each
  injection timestamp with the next recovery event, in virtual time.

Nothing here touches the kernel unless explicitly attached: the batch
paths keep their zero-overhead-when-off contract.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Mapping

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.tracer import Span


# --------------------------------------------------------------------- #
# P² streaming quantiles


class P2Quantile:
    """One streaming quantile via the P² algorithm (Jain & Chlamtac 1985).

    Five markers track the running estimate; marker heights adjust with a
    piecewise-parabolic prediction as observations arrive.  Exact for the
    first five observations, an estimate afterwards.  Fully deterministic:
    same observation sequence, same estimate.
    """

    def __init__(self, q: float) -> None:
        if not 0.0 < q < 1.0:
            raise ValueError("quantile must be in (0, 1)")
        self.q = q
        self.count = 0
        self._heights: list[float] = []
        self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._desired = [1.0, 1 + 2 * q, 1 + 4 * q, 3 + 2 * q, 5.0]
        self._increments = [0.0, q / 2, q, (1 + q) / 2, 1.0]

    def add(self, value: float) -> None:
        self.count += 1
        if self.count <= 5:
            self._heights.append(float(value))
            self._heights.sort()
            return
        h = self._heights
        # Find the cell the new observation falls into; stretch extremes.
        if value < h[0]:
            h[0] = float(value)
            cell = 0
        elif value >= h[4]:
            h[4] = float(value)
            cell = 3
        else:
            cell = 0
            while cell < 3 and value >= h[cell + 1]:
                cell += 1
        for index in range(cell + 1, 5):
            self._positions[index] += 1
        for index in range(5):
            self._desired[index] += self._increments[index]
        # Adjust the three interior markers toward their desired positions.
        for index in range(1, 4):
            drift = self._desired[index] - self._positions[index]
            pos = self._positions
            if (drift >= 1 and pos[index + 1] - pos[index] > 1) or (
                drift <= -1 and pos[index - 1] - pos[index] < -1
            ):
                step = 1.0 if drift >= 1 else -1.0
                candidate = self._parabolic(index, step)
                if h[index - 1] < candidate < h[index + 1]:
                    h[index] = candidate
                else:
                    h[index] = self._linear(index, step)
                pos[index] += step

    def _parabolic(self, i: int, step: float) -> float:
        h, pos = self._heights, self._positions
        return h[i] + step / (pos[i + 1] - pos[i - 1]) * (
            (pos[i] - pos[i - 1] + step)
            * (h[i + 1] - h[i])
            / (pos[i + 1] - pos[i])
            + (pos[i + 1] - pos[i] - step)
            * (h[i] - h[i - 1])
            / (pos[i] - pos[i - 1])
        )

    def _linear(self, i: int, step: float) -> float:
        h, pos = self._heights, self._positions
        j = i + int(step)
        return h[i] + step * (h[j] - h[i]) / (pos[j] - pos[i])

    def value(self) -> float:
        """The current estimate (exact while ``count <= 5``)."""
        if not self._heights:
            return 0.0
        if self.count <= 5:
            # Exact quantile over the sorted sample, nearest-rank.
            rank = max(0, min(len(self._heights) - 1, round(self.q * (len(self._heights) - 1))))
            return self._heights[rank]
        return self._heights[2]


# --------------------------------------------------------------------- #
# Latency sketches


#: The SLO quantiles every sketch tracks, in reporting order.
SLO_QUANTILES = (("p50", 0.5), ("p99", 0.99), ("p999", 0.999))


class LatencySketch:
    """Streaming count/total/min/max plus p50/p99/p999 of a latency."""

    __slots__ = ("count", "total", "min", "max", "_sketches")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0
        self.min: int | None = None
        self.max: int | None = None
        self._sketches = tuple(P2Quantile(q) for _, q in SLO_QUANTILES)

    def add(self, value: int) -> None:
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        for sketch in self._sketches:
            sketch.add(value)

    def quantiles(self) -> dict[str, int]:
        out = {}
        for (name, _), sketch in zip(SLO_QUANTILES, self._sketches):
            estimate = int(round(sketch.value()))
            if self.max is not None:
                estimate = min(estimate, self.max)
            if self.min is not None:
                estimate = max(estimate, self.min)
            out[name] = estimate
        return out

    def as_dict(self) -> dict[str, object]:
        mean = round(self.total / self.count, 2) if self.count else 0.0
        out: dict[str, object] = {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": mean,
        }
        out.update(self.quantiles())
        return out


# --------------------------------------------------------------------- #
# Windowed counters


class WindowedCounter:
    """A monotonic counter with a per-snapshot-window view."""

    __slots__ = ("total", "_window_start")

    def __init__(self) -> None:
        self.total = 0
        self._window_start = 0

    def add(self, n: int = 1) -> None:
        self.total += n

    def window(self) -> int:
        return self.total - self._window_start

    def roll(self) -> int:
        """Close the current window, returning its count."""
        count = self.window()
        self._window_start = self.total
        return count


# --------------------------------------------------------------------- #
# The live collector


#: Counters whose deltas the collector turns into events.  Order matters
#: for determinism of the emitted event stream.
WATCHED_COUNTERS = (
    "faults.injected",
    "faults.recovered",
    "scrub.repairs",
    "scrub.runs",
    "smp.shootdown.msgs",
    "smp.tlb_shootdown.msgs",
    "disk.retries",
    "cluster.retries",
    "cluster.handoffs",
    "cluster.node_deaths",
    "cluster.rejoins",
    "cluster.reconcile.repairs",
)

#: The cluster slice of the watched set: the snapshot/summary block for
#: these appears only when at least one is nonzero, so single-kernel
#: serve output stays byte-identical to pre-cluster builds.
CLUSTER_WATCHED = (
    "cluster.retries",
    "cluster.handoffs",
    "cluster.node_deaths",
    "cluster.rejoins",
    "cluster.reconcile.repairs",
)


class LiveCollector:
    """Streaming SLO state for one served model.

    Three inputs feed it:

    * ``observe_span(span)`` — called by the tracer at span exit (the
      collector is passed as the tracer's ``metrics=``); verb-level
      sketches are keyed by span name, so Table 1 verbs land under their
      ``kernel.*`` names.
    * ``observe_request(klass, cycles, refs)`` — called by the serve
      driver once per arrival with the request's attributed
      simulated-cycle cost; ``refs`` is None for a request that failed
      after its retry, which enters its class sketch (its cycles were
      spent) but not the completed-request counters.
    * ``poll(now_us, counters)`` — called by the driver after each
      request with the backend's live counters; deltas on watched
      counters become timestamped events, and inject→recover pairs feed
      the recovery-time sketch.
    """

    def __init__(self, model: str) -> None:
        self.model = model
        self.verb_sketches: dict[str, LatencySketch] = {}
        self.request_sketches: dict[str, LatencySketch] = {}
        self.recovery_sketch = LatencySketch()
        self.requests = WindowedCounter()
        self.refs = WindowedCounter()
        self.request_classes: dict[str, WindowedCounter] = {}
        self.retries = WindowedCounter()
        self.failures = WindowedCounter()
        self._watched: dict[str, int] = {name: 0 for name in WATCHED_COUNTERS}
        self._pending_injects: deque[int] = deque()
        self._events: list[dict[str, object]] = []
        self._snapshots = 0

    def seed_counters(self, counters: Mapping[str, int]) -> None:
        """Baseline the watched counters from ``counters``.

        Call once after server construction, before the first
        :meth:`poll`: counter movement that happened during setup
        (attach broadcasts on an SMP kernel land shootdown messages
        before the first request exists) is baseline, not an event.
        Without the seed, the first poll would emit phantom events for
        all of it, timestamped at the first request's completion.
        """
        for name in WATCHED_COUNTERS:
            self._watched[name] = counters.get(name, 0)

    # -------------------------------------------------------------- #
    # Inputs

    def observe_span(self, span: "Span") -> None:
        sketch = self.verb_sketches.get(span.name)
        if sketch is None:
            sketch = self.verb_sketches[span.name] = LatencySketch()
        sketch.add(span.cycles)

    def observe_request(self, klass: str, cycles: int, refs: int | None) -> None:
        sketch = self.request_sketches.get(klass)
        if sketch is None:
            sketch = self.request_sketches[klass] = LatencySketch()
        sketch.add(cycles)
        if refs is None:
            return
        self.requests.add()
        self.refs.add(refs)
        per_class = self.request_classes.get(klass)
        if per_class is None:
            per_class = self.request_classes[klass] = WindowedCounter()
        per_class.add()

    def observe_retry(self, klass: str, now_us: int) -> None:
        self.retries.add()
        self._events.append(
            {"t_us": now_us, "event": "request_retried", "class": klass}
        )

    def observe_failure(self, klass: str, now_us: int, reason: str) -> None:
        self.failures.add()
        self._events.append(
            {
                "t_us": now_us,
                "event": "request_failed",
                "class": klass,
                "reason": reason,
            }
        )

    def poll(self, now_us: int, counters: Mapping[str, int]) -> None:
        """Convert watched counter movement into timestamped events."""
        deltas: dict[str, int] = {}
        for name in WATCHED_COUNTERS:
            current = counters.get(name, 0)
            delta = current - self._watched[name]
            if delta > 0:
                deltas[name] = delta
                self._watched[name] = current
        if not deltas:
            return
        injected = deltas.get("faults.injected", 0)
        for _ in range(injected):
            self._pending_injects.append(now_us)
        if injected:
            self._events.append(
                {"t_us": now_us, "event": "fault_injected", "count": injected}
            )
        recovered = deltas.get("faults.recovered", 0)
        repairs = deltas.get("scrub.repairs", 0)
        if recovered:
            self._events.append(
                {"t_us": now_us, "event": "fault_recovered", "count": recovered}
            )
        if repairs:
            self._events.append(
                {"t_us": now_us, "event": "scrub_repair", "count": repairs}
            )
        # Each recovery or scrub repair closes the oldest outstanding
        # injection: the elapsed virtual time is the recovery time.
        for _ in range(recovered + repairs):
            if not self._pending_injects:
                break
            self.recovery_sketch.add(now_us - self._pending_injects.popleft())
        shootdowns = deltas.get("smp.shootdown.msgs", 0) + deltas.get(
            "smp.tlb_shootdown.msgs", 0
        )
        if shootdowns:
            self._events.append(
                {"t_us": now_us, "event": "shootdown", "count": shootdowns}
            )
        if deltas.get("disk.retries"):
            self._events.append(
                {
                    "t_us": now_us,
                    "event": "disk_retry",
                    "count": deltas["disk.retries"],
                }
            )
        cluster_moves = {
            name.split(".", 1)[1]: deltas[name]
            for name in CLUSTER_WATCHED
            if deltas.get(name)
        }
        if cluster_moves:
            # One combined event per poll: retries/handoffs/rejoins and
            # friends move together during a recovery episode.
            self._events.append(
                {"t_us": now_us, "event": "cluster", **cluster_moves}
            )

    # -------------------------------------------------------------- #
    # Outputs

    def snapshot(self, now_us: int, window_us: int) -> dict[str, object]:
        """One periodic SLO snapshot; closes the current rate window."""
        self._snapshots += 1
        window_s = window_us / 1_000_000 if window_us else 0.0
        window_requests = self.requests.roll()
        window_refs = self.refs.roll()
        events, self._events = self._events, []
        snap: dict[str, object] = {
            "t_us": now_us,
            "model": self.model,
            "seq": self._snapshots,
            "requests": {
                "window": window_requests,
                "total": self.requests.total,
                "per_class": {
                    klass: {"window": counter.roll(), "total": counter.total}
                    for klass, counter in sorted(self.request_classes.items())
                },
            },
            "refs": {"window": window_refs, "total": self.refs.total},
            "rates": {
                "requests_per_sec": round(window_requests / window_s, 2)
                if window_s
                else 0.0,
                "refs_per_sec": round(window_refs / window_s, 2)
                if window_s
                else 0.0,
            },
            "latency_cycles": {
                "per_class": {
                    klass: sketch.as_dict()
                    for klass, sketch in sorted(self.request_sketches.items())
                },
                "per_verb": {
                    name: sketch.as_dict()
                    for name, sketch in sorted(self.verb_sketches.items())
                },
            },
            "faults": {
                "injected": self._watched["faults.injected"],
                "recovered": self._watched["faults.recovered"],
                "scrub_repairs": self._watched["scrub.repairs"],
                "scrub_runs": self._watched["scrub.runs"],
                "outstanding": len(self._pending_injects),
                "request_retries": self.retries.roll(),
                "request_failures": self.failures.roll(),
            },
            "recovery_time_us": self.recovery_sketch.as_dict(),
            "events": events,
        }
        cluster = self._cluster_block()
        if cluster:
            snap["cluster"] = cluster
        return snap

    def _cluster_block(self) -> dict[str, int]:
        """Cumulative cluster recovery counters; {} on non-cluster runs
        (the omit-when-zero contract keeps kernel-serve output stable)."""
        return {
            name.split(".", 1)[1]: self._watched[name]
            for name in CLUSTER_WATCHED
            if self._watched[name]
        }

    def slo_summary(self, elapsed_us: int) -> dict[str, object]:
        """The end-of-run SLO view: cumulative, no window state."""
        elapsed_s = elapsed_us / 1_000_000 if elapsed_us else 0.0
        summary: dict[str, object] = {
            "model": self.model,
            "elapsed_us": elapsed_us,
            "requests": self.requests.total,
            "refs": self.refs.total,
            "sustained_requests_per_sec": round(
                self.requests.total / elapsed_s, 2
            )
            if elapsed_s
            else 0.0,
            "sustained_refs_per_sec": round(self.refs.total / elapsed_s, 2)
            if elapsed_s
            else 0.0,
            "latency_cycles_per_class": {
                klass: sketch.as_dict()
                for klass, sketch in sorted(self.request_sketches.items())
            },
            "latency_cycles_per_verb": {
                name: sketch.as_dict()
                for name, sketch in sorted(self.verb_sketches.items())
            },
            "faults": {
                "injected": self._watched["faults.injected"],
                "recovered": self._watched["faults.recovered"],
                "scrub_repairs": self._watched["scrub.repairs"],
                "outstanding": len(self._pending_injects),
                "request_retries": self.retries.total,
                "request_failures": self.failures.total,
            },
            "recovery_time_us": self.recovery_sketch.as_dict(),
        }
        cluster = self._cluster_block()
        if cluster:
            summary["cluster"] = cluster
        return summary
