"""Unit tests for the exporters: JSONL, Chrome traces, RunReports."""

from __future__ import annotations

import json

from repro.core.costs import cycles_for
from repro.core.params import DEFAULT_PARAMS
from repro.obs.export import (
    REPORT_VERSION,
    build_run_report,
    span_tree,
    spans_to_jsonl,
    write_chrome_trace,
)
from repro.obs.tracer import Tracer
from repro.sim.stats import Stats


def _traced_forest():
    stats = Stats()
    tracer = Tracer(stats)
    with tracer.span("alpha", pd=1):
        stats.inc("kernel.trap", 2)
        with tracer.span("beta"):
            stats.inc("plb.fill", 3)
    with tracer.span("gamma"):
        stats.inc("dcache.hit")
    return stats, tracer, tracer.finish()


class TestJsonl:
    def test_preorder_with_parent_indexes(self, tmp_path):
        _, _, spans = _traced_forest()
        path = tmp_path / "spans.jsonl"
        with open(path, "w") as fp:
            count = spans_to_jsonl(spans, fp)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert count == len(lines) == 3
        assert [line["name"] for line in lines] == ["alpha", "beta", "gamma"]
        assert [line["parent"] for line in lines] == [None, 0, None]
        assert lines[1]["delta"] == {"plb.fill": 3}


class TestChromeTraceFile:
    def test_written_file_is_loadable_json(self, tmp_path):
        _, _, spans = _traced_forest()
        path = tmp_path / "trace.json"
        write_chrome_trace(spans, str(path))
        doc = json.loads(path.read_text())
        assert doc["displayTimeUnit"] == "ms"
        names = [e["name"] for e in doc["traceEvents"]]
        assert names == ["process_name", "alpha", "beta", "gamma"]


class TestRunReport:
    def test_build_and_roundtrip(self, tmp_path):
        stats, tracer, spans = _traced_forest()
        report = build_run_report(
            "unit test", "plb", stats,
            params=DEFAULT_PARAMS, summary={"widgets": 7}, tracer=tracer,
        )
        assert report.version == REPORT_VERSION
        assert report.cycles_total == cycles_for(stats)
        assert report.counters["kernel.trap"] == 2
        assert report.params["va_bits"] == DEFAULT_PARAMS.va_bits
        assert report.summary == {"widgets": 7}
        assert [s["name"] for s in report.spans] == ["alpha", "gamma"]

        path = tmp_path / "report.json"
        report.write(str(path))
        with open(path) as fp:
            assert json.load(fp) == report.to_dict()

    def test_version_2_has_no_metrics_key(self):
        """Version 2 dropped the span-histogram ``metrics`` key."""
        stats, tracer, _ = _traced_forest()
        written = build_run_report("t", "plb", stats, tracer=tracer).to_dict()
        assert written["version"] == REPORT_VERSION == 2
        assert sorted(written) == [
            "counters", "cycles_breakdown", "cycles_total", "model", "params",
            "spans", "summary", "title", "version",
        ]

    def test_breakdown_sums_to_total(self):
        stats, _, _ = _traced_forest()
        report = build_run_report("t", "plb", stats)
        assert sum(report.cycles_breakdown.values()) == report.cycles_total

    def test_span_tree_preserves_nesting(self):
        _, _, spans = _traced_forest()
        tree = span_tree(spans)
        assert tree[0]["children"][0]["name"] == "beta"
        assert tree[0]["exclusive_cycles"] + tree[0]["children"][0][
            "cycles"
        ] == tree[0]["cycles"]
