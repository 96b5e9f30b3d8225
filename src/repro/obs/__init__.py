"""Observability: tracing, metrics and profiling for the simulator.

The paper's whole argument is an accounting argument — counts of entries
inspected, purged, refilled and faults taken per OS task — and the
:class:`~repro.sim.stats.Stats` multiset records the *totals*.  This
package records the *structure*: which kernel verb triggered which PLB
sweep, which workload phase caused the group-reload storm, and where the
weighted cycles actually went.

* :mod:`repro.obs.tracer` — span-based tracer.  Every
  ``with tracer.span("kernel.detach", ...)`` attributes the Stats delta
  accumulated inside it to that span; spans nest, hot-path spans can be
  sampled 1-in-N, and a disabled tracer costs nothing.
* :mod:`repro.obs.metrics` — histograms of per-span cycle costs and
  hotspot aggregation for the ``profile`` CLI.
* :mod:`repro.obs.export` — JSONL event logs, Chrome ``trace_event``
  files (loadable in ``chrome://tracing`` / Perfetto) and the
  machine-readable :class:`~repro.obs.export.RunReport`.
"""

from repro.obs.tracer import NULL_TRACER, NullTracer, Span, Tracer
from repro.obs.metrics import Histogram, Metrics, hotspots
from repro.obs.export import (
    RunReport,
    build_run_report,
    chrome_trace,
    span_tree,
    spans_to_jsonl,
    write_chrome_trace,
)

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "Histogram",
    "Metrics",
    "hotspots",
    "RunReport",
    "build_run_report",
    "chrome_trace",
    "span_tree",
    "spans_to_jsonl",
    "write_chrome_trace",
]
