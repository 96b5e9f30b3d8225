"""Tests for cluster serve mode: recovery SLOs under interconnect chaos."""

from __future__ import annotations

import pytest

from repro.cluster.serve import ClusterServer
from repro.os.kernel import MODELS
from repro.serve.driver import ServeConfig, run_serve
from repro.workloads.openloop import arrival_schedule


def cluster_config(**overrides):
    base = dict(
        duration_ms=300,
        seed=3,
        models=("plb",),
        rates={"cluster": 80.0},
        cluster_nodes=3,
    )
    base.update(overrides)
    return ServeConfig(**base)


class TestClusterServe:
    def test_fault_free_run_serves_and_stays_clean(self):
        result = run_serve(cluster_config())
        summary = result.summaries["plb"]
        assert result.unrecovered == {"plb": 0}
        assert summary["requests"] > 0
        assert summary["faults"]["injected"] == 0
        assert "cluster" not in summary  # omit-when-zero
        assert summary["cluster_recovery"]["episodes"] == 0
        assert summary["cluster_nodes"] == 3

    @pytest.mark.parametrize("model", MODELS)
    def test_a_request_is_a_burst_of_twelve_touches(self, model):
        result = run_serve(cluster_config(models=(model,)))
        summary = result.summaries[model]
        assert summary["requests"] > 0
        assert summary["refs"] == 12 * summary["requests"]

    def test_crash_plan_injects_recovers_and_measures(self):
        result = run_serve(cluster_config(duration_ms=400, plan="cluster-crash"))
        summary = result.summaries["plb"]
        assert result.unrecovered == {"plb": 0}
        assert summary["faults"]["injected"] >= 1
        assert summary["faults"]["recovered"] >= 1
        # The cluster block surfaces the protocol's own counters...
        assert summary["cluster"]["node_deaths"] >= 1
        assert summary["cluster"]["handoffs"] >= 1
        # ...and the recovery episodes carry nonzero measured cycles.
        recovery = summary["cluster_recovery"]
        assert recovery["episodes"] >= 1
        assert recovery["cycles"]["p50"] > 0
        assert recovery["us"]["p50"] >= 1

    def test_same_seed_is_deterministic(self):
        first = run_serve(cluster_config(plan="cluster-crash"))
        second = run_serve(cluster_config(plan="cluster-crash"))
        assert first.summaries == second.summaries

    def test_single_kernel_serve_has_no_cluster_keys(self):
        config = ServeConfig(duration_ms=200, seed=1, models=("plb",))
        result = run_serve(config)
        summary = result.summaries["plb"]
        assert "cluster" not in summary
        assert "cluster_recovery" not in summary
        assert "cluster_nodes" not in summary

    @pytest.mark.parametrize("model", MODELS)
    def test_a_request_is_priced_from_its_span_plus_wire_time(self, model):
        """Every node charges the cluster's one store, so the
        ``serve.cluster`` span sees all of a request's counted work; its
        price adds only the wire time the interconnect clock advanced
        inside ``handle`` (no scrub ticks run here)."""
        config = ServeConfig(
            duration_ms=200, seed=5, cpus=2, plan="cluster-lossy",
            rates={"cluster": 320.0}, cluster_nodes=4,
        )
        server = ClusterServer(model, config)
        net = server.cluster.net
        wire = 0
        for t_us, klass in arrival_schedule(
            config.rates, config.seed, config.duration_us
        ):
            clock = net.clock
            server.handle(t_us, klass)
            wire += net.clock - clock
        assert server.unrecovered == 0
        priced = server.collector.request_sketches["cluster"].total
        spans = server.collector.verb_sketches["serve.cluster"].total
        assert wire > 0
        assert priced - spans == wire
