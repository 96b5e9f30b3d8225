"""Exporters: JSONL event logs, Chrome traces, structured run reports.

Three formats, one source of truth (the tracer's span forest plus the
Stats counters):

* **JSONL** — one JSON object per span, preorder, with a ``parent``
  index so consumers can rebuild the tree with a single pass.
* **Chrome trace_event** — complete (``"ph": "X"``) events with the
  simulated cycle clock as the microsecond axis; the file loads directly
  in ``chrome://tracing`` or Perfetto.
* **RunReport** — the machine-readable record of one run (model,
  parameters, summary, counters, cycle totals and span tree) that
  ``repro trace --format report`` and ``repro serve --report-out`` write.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import IO, TYPE_CHECKING, Any, Iterable, Sequence

from repro.core.costs import cycles_breakdown, cycles_for
from repro.core.params import MachineParams
from repro.sim.stats import Stats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.tracer import Span, Tracer

#: Version stamp of the RunReport schema, bumped on breaking changes
#: (version 2 dropped the ``metrics`` key).
REPORT_VERSION = 2


# --------------------------------------------------------------------- #
# Span serialization


def span_to_dict(span: "Span", *, with_children: bool = True) -> dict[str, Any]:
    out: dict[str, Any] = {
        "name": span.name,
        "attrs": dict(span.attrs),
        "start_cycles": span.start_cycles,
        "cycles": span.cycles,
        "exclusive_cycles": span.exclusive_cycles,
        "depth": span.depth,
        "delta": dict(span.delta),
    }
    if with_children:
        out["children"] = [span_to_dict(child) for child in span.children]
    return out


def span_tree(spans: Sequence["Span"]) -> list[dict[str, Any]]:
    """The nested span forest as plain JSON-ready dicts."""
    return [span_to_dict(span) for span in spans]


def spans_to_jsonl(spans: Sequence["Span"], fp: IO[str]) -> int:
    """Write one JSON object per span, preorder; returns the line count.

    Each line carries ``index`` (preorder position) and ``parent`` (the
    parent's index, or None for top-level spans).
    """
    written = 0
    index = 0

    def emit(span: "Span", parent: int | None) -> None:
        nonlocal written, index
        record = span_to_dict(span, with_children=False)
        record["index"] = index
        record["parent"] = parent
        own = index
        index += 1
        fp.write(json.dumps(record, sort_keys=True) + "\n")
        written += 1
        for child in span.children:
            emit(child, own)

    for span in spans:
        emit(span, None)
    return written


# --------------------------------------------------------------------- #
# Chrome trace_event format


def chrome_trace(
    spans: Sequence["Span"], *, process_name: str = "repro-sim"
) -> dict[str, Any]:
    """A ``chrome://tracing`` / Perfetto trace of the span forest.

    The simulated cycle clock maps onto the trace's microsecond axis
    (1 cycle = 1 µs), so span widths are weighted-cycle costs.  Spans
    become complete events; each carries its counter delta in ``args``.
    """
    events: list[dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]
    for root in spans:
        for span in root.walk():
            events.append(
                {
                    "name": span.name,
                    "cat": "span",
                    "ph": "X",
                    "ts": span.start_cycles,
                    "dur": span.cycles,
                    "pid": 1,
                    "tid": 1,
                    "args": {"attrs": dict(span.attrs), "delta": dict(span.delta)},
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(spans: Sequence["Span"], path: str, **kwargs: Any) -> None:
    with open(path, "w") as fp:
        json.dump(chrome_trace(spans, **kwargs), fp, indent=1)


# --------------------------------------------------------------------- #
# Run reports


@dataclass
class RunReport:
    """The machine-readable record of one simulated run."""

    title: str
    model: str
    counters: dict[str, int]
    cycles_total: int
    cycles_breakdown: dict[str, int]
    params: dict[str, Any] = field(default_factory=dict)
    summary: dict[str, Any] = field(default_factory=dict)
    spans: list[dict[str, Any]] = field(default_factory=list)
    version: int = REPORT_VERSION

    def to_dict(self) -> dict[str, Any]:
        return {
            "version": self.version,
            "title": self.title,
            "model": self.model,
            "params": self.params,
            "summary": self.summary,
            "counters": self.counters,
            "cycles_total": self.cycles_total,
            "cycles_breakdown": self.cycles_breakdown,
            "spans": self.spans,
        }

    def to_json(self, *, indent: int | None = 1) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def write(self, path: str) -> None:
        with open(path, "w") as fp:
            fp.write(self.to_json())
            fp.write("\n")


def _params_dict(params: MachineParams | None) -> dict[str, Any]:
    if params is None:
        return {}
    return {
        "va_bits": params.va_bits,
        "pa_bits": params.pa_bits,
        "page_size": params.page_size,
        "cache_line_bytes": params.cache_line_bytes,
        "pd_id_bits": params.pd_id_bits,
        "aid_bits": params.aid_bits,
    }


def build_run_report(
    title: str,
    model: str,
    stats: Stats,
    *,
    params: MachineParams | None = None,
    summary: dict[str, Any] | None = None,
    tracer: "Tracer | None" = None,
) -> RunReport:
    """Assemble a :class:`RunReport` from one run's measurement objects.

    ``stats`` should be the run's *delta* (measured around the phase of
    interest), matching the methodology every bench already follows.
    """
    counters = dict(stats.items())
    report = RunReport(
        title=title,
        model=model,
        counters=counters,
        cycles_total=cycles_for(stats),
        cycles_breakdown=cycles_breakdown(stats),
        params=_params_dict(params),
        summary=dict(summary or {}),
    )
    if tracer is not None and tracer.active:
        report.spans = span_tree(tracer.roots)
    return report

