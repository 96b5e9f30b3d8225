"""Outside-in instrumentation: class-level wrappers over the simulator.

Nothing under ``src/`` knows it is measured.  Two wrappers live here:

* :class:`Probes` is always on.  It times object construction (the
  per-unit part of ``setup_s``), collects every :class:`Kernel` built so
  the ledger can audit it after the unit, and records each served
  request's virtual latency (due arrival to ``busy_until_us``).
* :class:`LayerTracer` is on only for the traced run (``--trace 1``).
  It wraps every method named in :data:`LAYERS` and keeps stack-based
  self time per method: at each wrapper entry and exit the CPU time since
  the previous one is charged to the innermost open wrapped call, so the
  layers' self times plus the time outside any of them add up to the
  traced run's CPU.

Wrappers replace class attributes, so they must be installed before the
objects they observe are built: some constructors bind methods (e.g.
``MemorySystem.access_fast``).  Both classes are context managers that
install on entry and restore the original attributes on exit.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from typing import Callable

_clock = time.process_time


def _resolve(path: str) -> type:
    module, _, name = path.partition(":")
    return getattr(importlib.import_module(module), name)


class _Patches:
    """Class attributes replaced by wrappers, restorable in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[type, str, object]] = []

    def wrap(self, cls: type, name: str, make: Callable[[Callable], Callable]) -> None:
        own = cls.__dict__.get(name, _INHERITED)
        original = getattr(cls, name)
        wrapper = make(original)
        functools.update_wrapper(wrapper, original)
        setattr(cls, name, wrapper)
        self._saved.append((cls, name, own))

    def restore(self) -> None:
        while self._saved:
            cls, name, own = self._saved.pop()
            if own is _INHERITED:
                delattr(cls, name)
            else:
                setattr(cls, name, own)


_INHERITED = object()


# --------------------------------------------------------------------- #
# Always-on probes


class Probes:
    """Set-up CPU, kernels built and served-request latency, per unit.

    Call :meth:`reset` before each unit; read the fields after it.
    """

    #: Constructors whose CPU counts as set-up: kernels and the workload
    #: objects the entrypoints build before they run.  Nested
    #: construction is counted once, at the outermost constructor.
    SETUP = (
        "repro.os.kernel:Kernel",
        "repro.serve.driver:ModelServer",
        "repro.cluster.serve:ClusterServer",
        "repro.workloads.dsm:DSMCluster",
        "repro.workloads.attach:AttachDetachWorkload",
        "repro.workloads.gc:ConcurrentGC",
        "repro.workloads.txn:TransactionalVM",
        "repro.workloads.checkpoint:ConcurrentCheckpoint",
        "repro.workloads.compression:CompressionPaging",
        "repro.workloads.rpc:RPCWorkload",
        "units:SmpUnit",
    )
    #: Servers whose ``handle(t_us, klass)`` serves one request.
    SERVERS = (
        "repro.serve.driver:ModelServer",
        "repro.cluster.serve:ClusterServer",
    )

    def __init__(self) -> None:
        self._patches = _Patches()
        self._depth = 0
        self._start = 0.0
        self.reset()

    def reset(self) -> None:
        #: CPU seconds spent in outermost constructors.
        self.setup_s = 0.0
        #: Every kernel built (it stays alive until the next reset).
        self.kernels: list = []
        #: ``(model, virtual µs from due arrival to completion)``.
        self.served: list[tuple[str, int]] = []

    def __enter__(self) -> "Probes":
        kernel_cls = _resolve("repro.os.kernel:Kernel")
        for path in self.SETUP:
            cls = _resolve(path)
            self._patches.wrap(cls, "__init__", self._timed_init(cls is kernel_cls))
        for path in self.SERVERS:
            self._patches.wrap(_resolve(path), "handle", self._observed_handle)
        return self

    def __exit__(self, *exc: object) -> None:
        self._patches.restore()

    def _timed_init(self, keep: bool) -> Callable[[Callable], Callable]:
        probes = self

        def make(init: Callable) -> Callable:
            def __init__(obj, *args, **kwargs):
                if probes._depth == 0:
                    probes._start = _clock()
                probes._depth += 1
                try:
                    init(obj, *args, **kwargs)
                finally:
                    probes._depth -= 1
                    if probes._depth == 0:
                        probes.setup_s += _clock() - probes._start
                if keep:
                    probes.kernels.append(obj)

            return __init__

        return make

    def _observed_handle(self, handle: Callable) -> Callable:
        probes = self

        def wrapper(server, t_us, klass):
            handle(server, t_us, klass)
            probes.served.append((server.model, server.busy_until_us - t_us))

        return wrapper


# --------------------------------------------------------------------- #
# The traced run


#: ``(layer, tag, "module:Class", methods)``.  The layer is the
#: ``src/repro`` package whose work the methods do; the tag names a
#: sub-layer that a per-layer metric reads on its own.
LAYERS: tuple[tuple[str, str, str, tuple[str, ...]], ...] = (
    ("hardware", "dcache", "repro.hardware.cache:DataCache", ("access",)),
    ("hardware", "tlb", "repro.hardware.tlb:TranslationTLB", ("lookup", "fill")),
    ("hardware", "tlb", "repro.hardware.tlb:AIDTaggedTLB", ("lookup", "fill")),
    ("hardware", "tlb", "repro.hardware.tlb:ASIDTaggedTLB", ("lookup", "fill")),
    ("core", "walk", "repro.core.mmu:PLBSystem", ("_access_fast",)),
    ("core", "walk", "repro.core.mmu:PageGroupSystem", ("_access_fast",)),
    ("core", "walk", "repro.core.mmu:ConventionalSystem", ("_access_fast",)),
    ("core", "probe", "repro.core.plb:ProtectionLookasideBuffer", ("lookup",)),
    ("core", "probe", "repro.core.pagegroup:PageGroupCache", ("find",)),
    ("sim", "touch", "repro.sim.machine:Machine", ("touch",)),
    ("sim", "touch_on", "repro.sim.machine:SMPMachine", ("touch_on",)),
    ("sim", "stats", "repro.sim.stats:Stats", ("inc", "inc_many", "snapshot", "delta")),
    ("sim", "stats", "repro.os.kernel:Kernel", ("merged_stats",)),
    ("sim", "stats", "repro.cluster.dsm:ClusterDSM", ("merged_stats",)),
    (
        "os",
        "verb",
        "repro.os.kernel:Kernel",
        (
            "create_domain", "create_segment", "destroy_segment", "attach", "detach",
            "set_page_rights", "set_pages_rights", "set_rights_all_domains",
            "set_pages_rights_all_domains", "set_segment_rights", "grant_group",
            "revoke_group", "move_page_to_group", "move_pages_to_group",
            "set_page_rights_global", "set_pages_rights_global", "populate_page",
            "unmap_page", "unmap_pages", "free_page", "free_pages",
        ),
    ),
    ("os", "switch", "repro.os.kernel:Kernel", ("switch_to",)),
    ("os", "fault", "repro.os.kernel:Kernel", ("handle_protection_fault", "handle_page_fault")),
    ("os", "bus", "repro.os.smp:ShootdownBus", ("shootdown", "shootdown_range")),
    ("os", "pager", "repro.os.pager:UserLevelPager", ("page_out", "page_in")),
    ("faults", "tick", "repro.faults.plan:FaultInjector", ("tick",)),
    ("faults", "scrub", "repro.faults.scrub:Scrubber", ("scrub",)),
    ("obs", "span", "repro.obs.tracer:Tracer", ("span",)),
    ("obs", "span", "repro.obs.tracer:_SpanHandle", ("__enter__", "__exit__")),
    (
        "obs",
        "live",
        "repro.obs.live:LiveCollector",
        (
            "seed_counters", "observe_span", "observe_request", "observe_retry",
            "observe_failure", "poll", "snapshot", "slo_summary",
        ),
    ),
    ("serve", "handle", "repro.serve.driver:ModelServer", ("handle",)),
    ("serve", "handle", "repro.cluster.serve:ClusterServer", ("handle",)),
    ("cluster", "send", "repro.cluster.interconnect:Interconnect", ("send",)),
    (
        "cluster",
        "dsm",
        "repro.cluster.dsm:ClusterDSM",
        ("get_readable", "get_writable", "get_writable_range", "tick"),
    ),
    ("workloads", "source", "repro.workloads.openloop:TxnRequests", ("execute",)),
    ("workloads", "source", "repro.workloads.openloop:GcRequests", ("execute",)),
    ("workloads", "source", "repro.workloads.openloop:RpcRequests", ("execute",)),
    ("workloads", "source", "repro.workloads.openloop:CheckpointRequests", ("execute",)),
    ("workloads", "source", "repro.cluster.serve:ClusterRequestSource", ("execute",)),
    ("workloads", "refs", "repro.workloads.tracegen:TraceGenerator", ("refs",)),
    ("workloads", "run", "repro.workloads.attach:AttachDetachWorkload", ("run",)),
    ("workloads", "run", "repro.workloads.gc:ConcurrentGC", ("run",)),
    ("workloads", "run", "repro.workloads.dsm:DSMCluster", ("run_migratory",)),
    ("workloads", "run", "repro.workloads.txn:TransactionalVM", ("run",)),
    ("workloads", "run", "repro.workloads.checkpoint:ConcurrentCheckpoint", ("run",)),
    ("workloads", "run", "repro.workloads.compression:CompressionPaging", ("run",)),
    ("workloads", "run", "repro.workloads.rpc:RPCWorkload", ("run",)),
    ("workloads", "round", "units:SmpUnit", ("round",)),
)

#: ``(layer, tag)`` pairs whose calls are requests: one served arrival,
#: one Table 1 class on one model, one smp round on one model.  Spans
#: inside a request share its id.
REQUESTS = frozenset({("serve", "handle"), ("workloads", "run"), ("workloads", "round")})

LAYER_NAMES = tuple(dict.fromkeys(layer for layer, _, _, _ in LAYERS))


class LayerTracer:
    """Per-method calls and self CPU time, plus span records on demand."""

    #: Most span records kept (the first ones opened); later spans are
    #: only counted, in ``dropped``.
    SPAN_CAP = 100_000

    def __init__(self) -> None:
        #: ``(layer, tag, "Class.method")`` per wrapped method.
        self.keys: list[tuple[str, str, str]] = []
        self._targets: list[tuple[type, str, bool]] = []
        for layer, tag, path, methods in LAYERS:
            cls = _resolve(path)
            for name in methods:
                self.keys.append((layer, tag, f"{cls.__name__}.{name}"))
                self._targets.append((cls, name, (layer, tag) in REQUESTS))
        self.calls = [0] * len(self.keys)
        self.self_s = [0.0] * len(self.keys)
        #: CPU charged while no wrapped method was open.
        self.outside_s = 0.0
        #: Inclusive CPU of every request (see :data:`REQUESTS`).
        self.request_s: list[float] = []
        #: Span records ``[key, start_s, end_s, parent, request]``, kept
        #: while :meth:`record` is on.
        self.records: list[list] = []
        self.dropped = 0
        self._recording = False
        self._patches = _Patches()
        self._stack: list[int] = []
        self._spans: list[int] = []
        self._mark = 0.0
        self._t0 = 0.0
        self._request = 0
        self._request_depth = 0
        self._request_start = 0.0

    # -- install ------------------------------------------------------- #

    def __enter__(self) -> "LayerTracer":
        """Install every wrapper; accounting accumulates across entries."""
        for index, (cls, name, request) in enumerate(self._targets):
            factory = (
                self._generator_wrapper
                if inspect.isgeneratorfunction(getattr(cls, name))
                else self._wrapper
            )
            self._patches.wrap(cls, name, functools.partial(factory, index, request))
        self._mark = _clock()
        return self

    def __exit__(self, *exc: object) -> None:
        self.outside_s += _clock() - self._mark
        self._patches.restore()

    def record(self, on: bool) -> None:
        """Start (or stop) keeping span records; call between units."""
        if on and not self.records:
            self._t0 = _clock()
        self._recording = on

    # -- accounting ---------------------------------------------------- #

    def _enter(self, index: int, request: bool) -> None:
        now = _clock()
        stack = self._stack
        if stack:
            self.self_s[stack[-1]] += now - self._mark
        else:
            self.outside_s += now - self._mark
        self._mark = now
        stack.append(index)
        self.calls[index] += 1
        if request:
            if not self._request_depth:
                self._request += 1
                self._request_start = now
            self._request_depth += 1
        records = self.records
        if not self._recording:
            self._spans.append(-1)
        elif len(records) < self.SPAN_CAP:
            parent = self._spans[-1] if self._spans else -1
            request_id = self._request if self._request_depth else 0
            self._spans.append(len(records))
            records.append([index, now - self._t0, 0.0, parent, request_id])
        else:
            self.dropped += 1
            self._spans.append(-1)

    def _leave(self, request: bool) -> None:
        now = _clock()
        self.self_s[self._stack.pop()] += now - self._mark
        self._mark = now
        span = self._spans.pop()
        if span >= 0:
            self.records[span][2] = now - self._t0
        if request:
            self._request_depth -= 1
            if not self._request_depth:
                self.request_s.append(now - self._request_start)

    def _wrapper(self, index: int, request: bool, fn: Callable) -> Callable:
        enter = self._enter
        leave = self._leave

        def wrapper(*args, **kwargs):
            enter(index, request)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(request)

        return wrapper

    def _generator_wrapper(self, index: int, request: bool, fn: Callable) -> Callable:
        """Charge a generator's body per resumption (its calls count those)."""
        enter = self._enter
        leave = self._leave

        def wrapper(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                enter(index, request)
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    leave(request)
                yield item

        return wrapper

    # -- results ------------------------------------------------------- #

    def totals(self, level: str) -> dict[str, tuple[int, float]]:
        """``{name: (calls, self_s)}`` by ``"layer"``, ``"tag"`` or ``"method"``.

        Tag names are ``layer.tag``; method names ``layer.tag.Class.method``.
        """
        out: dict[str, tuple[int, float]] = {}
        for (layer, tag, method), calls, spent in zip(self.keys, self.calls, self.self_s):
            name = {
                "layer": layer,
                "tag": f"{layer}.{tag}",
                "method": f"{layer}.{tag}.{method}",
            }[level]
            old_calls, old_spent = out.get(name, (0, 0.0))
            out[name] = (old_calls + calls, old_spent + spent)
        return out

    def accounted_s(self) -> float:
        """All charged CPU: every method's self time plus time outside."""
        return sum(self.self_s) + self.outside_s

    def chrome_trace(self) -> dict:
        """The recorded spans as Chrome trace JSON (CPU µs time axis)."""
        events = []
        for span_id, (index, start, end, parent, request) in enumerate(self.records):
            layer, tag, method = self.keys[index]
            events.append(
                {
                    "name": method,
                    "cat": f"{layer}.{tag}",
                    "ph": "X",
                    "ts": round(start * 1e6, 3),
                    "dur": round((end - start) * 1e6, 3),
                    "pid": 0,
                    "tid": 0,
                    "args": {"id": span_id, "parent": parent, "request": request},
                }
            )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"clock": "process CPU time", "dropped_spans": self.dropped},
        }
