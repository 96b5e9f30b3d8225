"""CLI surface of serve mode."""

from __future__ import annotations

import json

import pytest

from repro.cli import main


class TestServeCommand:
    def test_serve_prints_slo_summary_and_exits_zero(self, capsys):
        assert main([
            "serve", "--duration", "100", "--seed", "7", "--models", "plb",
            "--plan", "mixed",
        ]) == 0
        out = capsys.readouterr().out
        assert "Serve SLO summary" in out
        assert "[plb] latency (simulated cycles)" in out

    def test_serve_writes_all_three_exports(self, tmp_path, capsys):
        jsonl = tmp_path / "metrics.jsonl"
        prom = tmp_path / "metrics.prom"
        report = tmp_path / "slo.json"
        assert main([
            "serve", "--duration", "100", "--seed", "7", "--models", "plb",
            "--plan", "mixed",
            "--jsonl-out", str(jsonl),
            "--prom-out", str(prom),
            "--report-out", str(report),
        ]) == 0
        capsys.readouterr()
        lines = jsonl.read_text().splitlines()
        assert lines and all(json.loads(line)["model"] == "plb" for line in lines)
        assert "# TYPE repro_requests_total counter" in prom.read_text()
        data = json.loads(report.read_text())
        assert [r["title"] for r in data["reports"]] == ["serve-plb"]
        assert data["reports"][0]["summary"]["sustained_refs_per_sec"] > 0

    def test_serve_divergence_exits_one(self, capsys):
        assert main([
            "serve", "--duration", "400", "--seed", "2", "--models", "plb",
            "--plan", "unrecoverable", "--rates", "rpc=150",
        ]) == 1
        err = capsys.readouterr().err
        assert "unrecovered divergence" in err

    def test_serve_rejects_unknown_preset_and_class(self, capsys):
        assert main(["serve", "--plan", "bogus"]) == 2
        capsys.readouterr()
        assert main(["serve", "--rates", "bogus=3"]) == 2

    def test_serve_refuses_a_plan_that_cannot_strike(self, capsys):
        """A cluster preset on a kernel, or a kernel preset on a
        cluster, would inject nothing: both are refused."""
        assert main([
            "serve", "--duration", "300", "--seed", "1",
            "--plan", "cluster-lossy",
        ]) == 2
        assert "which a kernel lacks" in capsys.readouterr().err
        assert main([
            "serve", "--duration", "300", "--seed", "1",
            "--cluster-nodes", "3", "--plan", "mixed",
        ]) == 2
        assert "which a cluster lacks" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ("--snapshot-every", "--scrub-every-ms"))
    def test_the_cadence_flags_are_gone(self, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--duration", "300", flag, "50"])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag} 50" in capsys.readouterr().err

    def test_serve_rejects_degenerate_knobs(self, capsys):
        assert main(["serve", "--duration", "0"]) == 2
        capsys.readouterr()
        assert main(["serve", "--cpus", "0"]) == 2
        capsys.readouterr()
        assert main(["serve", "--rates", "rpc=-1"]) == 2


class TestReportOut:
    """``--report-out`` writes the per-model SLO RunReports as one
    ``{"reports": [...]}`` JSON document."""

    ARGS = ["serve", "--duration", "100", "--seed", "7"]

    def test_writes_structured_throughput_reports(self, tmp_path, capsys):
        out = tmp_path / "serve.json"
        assert main(
            self.ARGS + ["--models", "plb,conventional", "--report-out", str(out)]
        ) == 0
        capsys.readouterr()
        data = json.loads(out.read_text())
        assert [r["title"] for r in data["reports"]] == [
            "serve-conventional", "serve-plb",
        ]
        for report in data["reports"]:
            assert report["version"] == 2 and "metrics" not in report
            assert report["summary"]["sustained_refs_per_sec"] > 0
            # Each report carries the run's counters too.
            assert report["counters"]["refs"] > 0

    def test_file_holds_the_runs_slo_reports(self, tmp_path, capsys):
        """The file is exactly the SLO reports of an identical run."""
        from repro.analysis.slo import build_slo_reports
        from repro.serve.driver import ServeConfig, run_serve

        out = tmp_path / "serve.json"
        assert main(self.ARGS + ["--report-out", str(out)]) == 0
        capsys.readouterr()
        result = run_serve(ServeConfig(duration_ms=100, seed=7))
        reports = build_slo_reports(result.summaries, result.stats)
        assert json.loads(out.read_text()) == {
            "reports": [report.to_dict() for report in reports]
        }
