"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, cmd_entry_sizes, cmd_replay, cmd_workload, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_models_validation(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table1", "--models", "bogus"])

    def test_models_parsing(self):
        args = build_parser().parse_args(["table1", "--models", "plb,pagegroup"])
        assert args.models == ("plb", "pagegroup")

    @pytest.mark.parametrize(
        "command",
        [
            ["all"],
            ["table1"],
            ["summary"],
            ["workload", "rpc"],
            ["check", "fuzz"],
            ["crash-recover"],
            ["smp"],
            ["serve"],
            ["cluster"],
        ],
        ids=lambda command: command[0],
    )
    def test_empty_models_list_is_rejected(self, command, capsys):
        """``--models ,`` names no model: a run over zero models would
        check nothing and pass, so the parser refuses it."""
        with pytest.raises(SystemExit) as exit_info:
            main(command + ["--models", ","])
        assert exit_info.value.code == 2
        assert "no model named" in capsys.readouterr().err


class TestCommands:
    def test_figure1(self, capsys):
        assert main(["figure1"]) == 0
        out = capsys.readouterr().out
        assert "52 bits" in out

    def test_figure2(self, capsys):
        assert main(["figure2"]) == 0
        out = capsys.readouterr().out
        assert "MISMATCH" not in out
        assert "group 0" in out

    def test_entry_sizes(self, capsys):
        assert main(["entry-sizes"]) == 0
        out = capsys.readouterr().out
        assert "about 25%" in out

    def test_workload_rpc(self, capsys):
        assert main(["workload", "rpc", "--models", "plb"]) == 0
        out = capsys.readouterr().out
        assert "PD-ID register writes" in out
        assert "calls=" in out

    def test_workload_dsm(self, capsys):
        assert main(["workload", "dsm", "--models", "plb"]) == 0
        out = capsys.readouterr().out
        assert "Distributed VM" in out

    def test_workload_report_merges_the_single_model_runs(self, monkeypatch):
        """Each model runs on a kernel of its own: a two-model report
        equals the single-model runs merged in model order."""
        from repro import cli
        from repro.analysis.table1 import Table1Result, run_rpc

        models = ("plb", "pagegroup")
        together = cli.cmd_workload("rpc", models)
        cells = {model: run_rpc(models=(model,)) for model in models}
        merged = Table1Result(
            cells["plb"].title,
            {model: cell.stats_by_model[model] for model, cell in cells.items()},
            {model: cell.summary_by_model[model] for model, cell in cells.items()},
        )
        monkeypatch.setitem(cli.WORKLOADS, "rpc", lambda models: merged)
        assert cli.cmd_workload("rpc", models) == together

    def test_workload_fileserver(self, capsys):
        assert main(["workload", "fileserver", "--models", "plb"]) == 0
        out = capsys.readouterr().out
        assert "File server" in out
        assert "requests=" in out

    def test_summary(self, capsys):
        assert main(["summary", "--models", "plb,pagegroup"]) == 0
        out = capsys.readouterr().out
        assert "geometric mean" in out
        assert "pagegroup/plb" in out

    def test_all_emits_every_artifact(self, capsys):
        assert main(["all", "--models", "plb,pagegroup"]) == 0
        out = capsys.readouterr().out
        for marker in ("Figure 1", "Figure 2", "Entry sizes",
                       "Table 1 (measured)", "Cross-workload summary"):
            assert marker in out


class TestParallelismValidation:
    """One validation path for --cpus (simulated CPUs), and no worker
    processes: ``workload`` has no --jobs flag."""

    def test_workload_jobs_below_one(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["workload", "rpc", "--jobs", "0"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --jobs 0" in capsys.readouterr().err

    def test_workload_jobs_with_single_model_is_explicit(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["workload", "rpc", "--models", "plb", "--jobs", "2"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err

    def test_bench_jobs_below_one(self, capsys):
        """There is no ``bench`` command (the ledger under
        ``benchmarks/ledger`` is the host-time measure), so the parser
        refuses it: exit 2."""
        with pytest.raises(SystemExit) as exit_info:
            main(["bench", "--models", "plb", "--jobs", "0"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    def test_smp_cpus_below_one(self, capsys):
        assert main(["smp", "--cpus", "0"]) == 2
        assert "--cpus must be >= 1" in capsys.readouterr().err

    def test_smp_domains_below_one(self, capsys):
        assert main(["smp", "--cpus", "2", "--domains", "0"]) == 2
        assert "--domains must be >= 1" in capsys.readouterr().err


class TestCountValidation:
    """A count below 1 is refused, not run as an empty or clipped run."""

    @pytest.mark.parametrize("ops", ("0", "-3"))
    def test_check_ops_below_one(self, ops, capsys):
        assert main(["check", "fuzz", "--ops", ops, "--seed", "0"]) == 2
        assert "--ops must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("top", ("0", "-2"))
    def test_profile_top_below_one(self, top, capsys):
        assert main(["profile", "gc", "--model", "plb", "--top", top]) == 2
        assert "--top must be >= 1" in capsys.readouterr().err


class TestSMPCommand:
    def test_prints_the_consistency_table(self, capsys):
        assert main(["smp", "--cpus", "2", "--domains", "2",
                     "--models", "plb,conventional"]) == 0
        out = capsys.readouterr().out
        assert "§4.1.3 consistency" in out
        assert "rights change (all domains, one page)" in out
        assert "paper ordering: plb <= pagegroup <= conventional" in out

    def test_chaos_smoke_exits_zero_on_recovery(self, capsys):
        """The multi-CPU fault smoke is ``repro check --cpus N --plan``."""
        assert main(["check", "fuzz", "--cpus", "2", "--models", "plb",
                     "--plan", "shootdown", "--ops", "40", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "check fuzz seed=0: OK" in out
        assert "cpus=2" in out

    def test_too_few_pages_is_a_clean_error(self, capsys):
        assert main(["smp", "--cpus", "2", "--pages", "2"]) == 2
        assert "at least 4 pages" in capsys.readouterr().err

    def test_one_domain_is_a_clean_error(self, capsys):
        assert main(["smp", "--cpus", "2", "--domains", "1"]) == 2
        err = capsys.readouterr().err
        assert "repro: error: the scenario needs at least 2 domains" in err
        assert "Traceback" not in err


class TestErrors:
    def test_unknown_workload_exits_cleanly(self, capsys):
        assert main(["workload", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "unknown workload 'bogus'" in err
        assert "gc" in err  # the message lists the valid names

    def test_unknown_trace_workload(self, capsys):
        assert main(["trace", "bogus", "--out", "/tmp/never.json"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_unknown_profile_model(self, capsys):
        assert main(["profile", "gc", "--model", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "unknown model 'bogus'" in err
        assert "plb" in err

    def test_dsm_cannot_be_traced(self, capsys):
        assert main(["trace", "dsm", "--out", "/tmp/never.json"]) == 2
        assert "dsm" in capsys.readouterr().err


class TestTrace:
    def test_trace_writes_valid_chrome_trace(self, tmp_path, capsys):
        import json

        out = tmp_path / "trace.json"
        assert main(["trace", "gc", "--model", "plb", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        events = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        assert events and events[0]["name"] == "run.gc"
        # One status line: every span counted, none sampled out.
        assert capsys.readouterr().out == (
            f"traced gc on plb: {len(events)} spans, {events[0]['dur']} "
            f"weighted cycles -> {out} [chrome]\n"
        )

    def test_trace_jsonl_format(self, tmp_path):
        import json

        out = tmp_path / "spans.jsonl"
        assert main(["trace", "rpc", "--model", "pagegroup", "--out", str(out),
                     "--format", "jsonl"]) == 0
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert lines[0]["name"] == "run.rpc"
        assert lines[0]["parent"] is None
        # Every reference is a span.
        accesses = [line for line in lines if line["name"] == "mem.access"]
        assert len(accesses) == lines[0]["delta"]["refs"]

    def test_trace_sample_flag_is_gone(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        with pytest.raises(SystemExit) as exit_info:
            main(["trace", "gc", "--out", str(out), "--sample", "4"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --sample 4" in capsys.readouterr().err

    def test_trace_report_format(self, tmp_path):
        import json

        from repro.cli import _run_traced
        from repro.obs.export import build_run_report

        out = tmp_path / "report.json"
        assert main(["trace", "attach", "--model", "conventional",
                     "--out", str(out), "--format", "report"]) == 0
        with open(out) as fp:
            written = json.load(fp)
        # The same traced run, built in process, is the file's content.
        kernel, tracer, _, delta = _run_traced("attach", "conventional")
        report = build_run_report(
            "trace attach", "conventional", delta,
            params=kernel.params, tracer=tracer,
        )
        assert written == report.to_dict()
        assert written["version"] == 2 and "metrics" not in written
        assert report.cycles_total == sum(report.cycles_breakdown.values())
        assert report.spans


class TestProfile:
    def test_profile_attributed_total_matches_delta(self, capsys):
        assert main(["profile", "txn", "--model", "pagegroup"]) == 0
        out = capsys.readouterr().out
        assert "Hotspots: txn on pagegroup" in out
        # The two footer totals must agree exactly (the acceptance
        # identity: root-span attribution == cycles_for over the delta).
        attributed = [line for line in out.splitlines()
                      if line.startswith("attributed cycles")]
        weighted = [line for line in out.splitlines()
                    if line.startswith("weighted cycles")]
        assert attributed and weighted
        assert attributed[0].split(":")[1].strip() == \
            weighted[0].split(":")[1].strip()

    def test_profile_top_limits_rows(self, capsys):
        assert main(["profile", "gc", "--model", "plb", "--top", "2"]) == 0
        out = capsys.readouterr().out
        assert "top 2 of" in out


class TestReplay:
    def test_replay_roundtrip(self, tmp_path, capsys):
        trace = tmp_path / "t.trace"
        trace.write_text(
            "R 1 0x100000 r\nR 1 0x100040 w\nS 1\nR 2 0x101000 r\n"
        )
        assert main(["replay", str(trace), "--model", "pagegroup"]) == 0
        out = capsys.readouterr().out
        assert "weighted cycles" in out
        assert "refs" in out

    def test_replay_empty_trace(self, tmp_path):
        trace = tmp_path / "empty.trace"
        trace.write_text("# nothing\n")
        assert "no references" in cmd_replay(str(trace), "plb", 4)

    @pytest.mark.parametrize(
        "content, message",
        [(None, "No such file"), ("R 1 0x100000 q\n", "bad trace line 1")],
        ids=["missing", "malformed"],
    )
    def test_unreadable_trace_is_a_clean_error(
        self, tmp_path, capsys, content, message
    ):
        trace = tmp_path / "t.trace"
        if content is not None:
            trace.write_text(content)
        assert main(["replay", str(trace)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: ")
        assert message in err


class TestChaosCommand:
    """Fault plans run through ``repro check --plan``."""

    def test_recoverable_plan_exits_zero(self, capsys):
        assert main(["check", "fuzz", "--models", "plb", "--plan", "mixed",
                     "--seed", "0", "--ops", "120"]) == 0
        out = capsys.readouterr().out
        assert "check fuzz seed=0: OK" in out
        assert "plan=mixed" in out
        assert "faults.injected=" in out

    def test_no_plan_exits_zero(self, capsys):
        assert main(["check", "fuzz", "--models", "pagegroup", "--plan", "none",
                     "--seed", "0"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_unrecoverable_plan_exits_one_with_dump(self, capsys):
        import json

        assert main(["check", "fuzz", "--models", "plb",
                     "--plan", "unrecoverable", "--seed", "1"]) == 1
        captured = capsys.readouterr()
        assert "DIVERGED" in captured.out
        assert "replayable repro dump:" in captured.out
        dump = json.loads(captured.out.split("replayable repro dump:\n", 1)[1])
        assert dump["plan"]["name"] == "unrecoverable"
        assert dump["divergence"]["model"] == "plb"

    def test_plan_file_replays_dump(self, tmp_path, capsys):
        import json

        main(["check", "fuzz", "--models", "plb",
              "--plan", "unrecoverable", "--seed", "1"])
        out = capsys.readouterr().out
        dump_text = out.split("replayable repro dump:\n", 1)[1]
        dump_path = tmp_path / "repro.json"
        dump_path.write_text(dump_text)
        assert main(["check", "fuzz", "--models", "plb",
                     "--plan", str(dump_path), "--seed", "1"]) == 1
        replayed = capsys.readouterr().out
        assert "DIVERGED" in replayed
        again = json.loads(replayed.split("replayable repro dump:\n", 1)[1])
        assert again["divergence"] == json.loads(dump_text)["divergence"]

    def test_unknown_plan_exits_cleanly(self, capsys):
        assert main(["check", "fuzz", "--plan", "gremlins", "--seed", "0"]) == 2
        assert "unknown --plan" in capsys.readouterr().err

    def test_cluster_plan_cannot_strike_a_kernel(self, capsys):
        assert main(["check", "fuzz", "--plan", "cluster-lossy", "--seed", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: fault plan 'cluster-lossy'")
        assert "which a kernel lacks" in err

    def test_cluster_plan_file_cannot_strike_a_kernel(self, tmp_path, capsys):
        import json

        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(
            {"events": [{"site": "cluster", "kind": "msg_drop", "at": 3}]}
        ))
        assert main(["check", "fuzz", "--plan", str(plan), "--seed", "0"]) == 2
        assert "which a kernel lacks" in capsys.readouterr().err

    def test_plan_file_with_no_events_runs(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text('{"events": []}')
        assert main(["check", "fuzz", "--models", "plb", "--plan", str(plan),
                     "--seed", "0", "--ops", "40"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_unknown_scenario_exits_cleanly(self, capsys):
        assert main(["check", "bogus", "--seed", "0"]) == 2
        assert "unknown scenario" in capsys.readouterr().err


class TestClusterCommand:
    def test_kernel_plan_cannot_strike_a_cluster(self, capsys):
        assert main(["cluster", "--plan", "mixed", "--seed", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: fault plan 'mixed'")
        assert "which a cluster lacks" in err

    def test_kernel_plan_file_cannot_strike_a_cluster(self, tmp_path, capsys):
        import json

        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(
            {"events": [{"site": "disk", "kind": "bitrot", "at": 0}]}
        ))
        assert main(["cluster", "--plan", str(plan), "--seed", "0"]) == 2
        assert "which a cluster lacks" in capsys.readouterr().err


class TestCrashRecoverCommand:
    def test_single_model_sweep_exits_zero(self, capsys):
        assert main(["crash-recover", "--models", "plb"]) == 0
        out = capsys.readouterr().out
        assert "crash-recover: OK" in out
        assert "crash points" in out
