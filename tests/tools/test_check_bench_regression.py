"""The bench-regression guard (tools/): its one tree walk and its command.

Pins the contract that a baseline cell missing from the current run is
a hard failure — silently dropping a (workload, model) cell must not
read as "no regression" — and runs every guard against the committed
baselines.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[2] / "tools"
sys.path.insert(0, str(TOOLS))

from check_bench_regression import GUARDS, THRESHOLD, check, main  # noqa: E402


BASELINE = {
    "attach": {"plb": 1000, "pagegroup": 2000},
    "gc": {"plb": 500},
}


def test_within_threshold_passes():
    current = {
        "attach": {"plb": int(1000 * (1 + THRESHOLD)), "pagegroup": 2000},
        "gc": {"plb": 500},
    }
    assert check(current, BASELINE) == []


def test_growth_beyond_threshold_fails():
    current = {
        "attach": {"plb": 1200, "pagegroup": 2000},
        "gc": {"plb": 500},
    }
    failures = check(current, BASELINE)
    assert len(failures) == 1
    assert "attach / plb" in failures[0]
    assert "+20.0%" in failures[0]


def test_missing_cell_fails():
    current = {
        "attach": {"plb": 1000},  # pagegroup cell vanished
        "gc": {"plb": 500},
    }
    failures = check(current, BASELINE)
    assert len(failures) == 1
    assert "attach / pagegroup" in failures[0]
    assert "missing" in failures[0]


def test_missing_workload_fails_every_cell():
    failures = check({"attach": BASELINE["attach"]}, BASELINE)
    assert failures == ["gc / plb: cell missing from current run"]


def test_improvement_never_fails():
    current = {
        "attach": {"plb": 1, "pagegroup": 1},
        "gc": {"plb": 1},
    }
    assert check(current, BASELINE) == []


def test_zero_baseline_cell_does_not_divide_by_zero():
    assert check({"gc": {"plb": 7}}, {"gc": {"plb": 0}}) == []


def test_null_baseline_cell_is_a_named_failure():
    # A null cell used to silently PASS (falsy -> growth 0.0); it must
    # fail by name instead of reading as "no regression".
    failures = check({"gc": {"plb": 7}}, {"gc": {"plb": None}})
    assert len(failures) == 1
    assert "gc / plb" in failures[0]
    assert "malformed" in failures[0]


def test_non_integer_baseline_cell_is_a_named_failure():
    failures = check({"gc": {"plb": 7}}, {"gc": {"plb": "500"}})
    assert len(failures) == 1
    assert "malformed" in failures[0]
    assert "'500'" in failures[0]


def test_bool_baseline_cell_is_a_named_failure():
    failures = check({"gc": {"plb": 7}}, {"gc": {"plb": True}})
    assert len(failures) == 1
    assert "malformed" in failures[0]


def test_non_dict_workload_entry_is_a_named_failure():
    # Used to crash with AttributeError on .items().
    failures = check({"gc": {"plb": 7}}, {"gc": [500]})
    assert len(failures) == 1
    assert failures[0].startswith("gc:")
    assert "malformed" in failures[0]


def test_malformed_entries_do_not_mask_other_cells():
    baseline = {"gc": None, "attach": {"plb": 100}}
    failures = check({"attach": {"plb": 200}}, baseline)
    assert len(failures) == 2
    assert any("gc" in line and "malformed" in line for line in failures)
    assert any("attach / plb" in line and "+100.0%" in line for line in failures)


def _sd_cell(msgs=10, legacy=80, entries=40):
    return {
        "msgs": msgs,
        "entries": entries,
        "legacy_msgs": legacy,
        "reduction": round(legacy / msgs, 2),
        "end_state_ok": True,
        "per_verb": {"move_pages": [msgs, entries]},
    }


SD_BASELINE = {"plb": _sd_cell(), "conventional": _sd_cell(msgs=20, legacy=160)}


class TestShootdownCells:
    """The shootdown guard's cells: per model, the messages (and
    entries) a group-verb workload costs against the legacy
    one-message-per-page count, checked exactly (``threshold=0.0``)."""

    def test_within_threshold_passes(self):
        current = {model: dict(cell) for model, cell in SD_BASELINE.items()}
        assert check(current, SD_BASELINE, threshold=0.0) == []

    def test_missing_model_ratio_fails(self):
        current = {"conventional": _sd_cell(msgs=20, legacy=160)}
        assert check(current, SD_BASELINE, threshold=0.0) == [
            f"plb / {cell}: cell missing from current run"
            for cell in (
                "msgs",
                "entries",
                "legacy_msgs",
                "reduction",
                "end_state_ok",
                "per_verb / move_pages",
            )
        ]

    def test_malformed_ratio_cell_is_a_named_failure(self):
        cell = _sd_cell()
        del cell["msgs"]
        failures = check({"plb": _sd_cell()}, {"plb": cell}, threshold=0.0)
        assert len(failures) == 1
        assert "plb" in failures[0] and "'msgs'" in failures[0]

    def test_non_dict_cell_is_a_named_failure(self):
        failures = check({"plb": _sd_cell()}, {"plb": 8.0}, threshold=0.0)
        assert len(failures) == 1
        assert "malformed" in failures[0]


def test_exact_cells_fail_on_any_drift():
    """At ``threshold=0.0`` an improvement is a drift too, and so is a
    changed verdict or per-verb pair."""
    current = {
        "plb": _sd_cell(msgs=9),
        "conventional": _sd_cell(msgs=20, legacy=160),
    }
    current["conventional"]["end_state_ok"] = False
    failures = check(current, SD_BASELINE, threshold=0.0)
    assert "plb / msgs: 10 -> 9 (drifted)" in failures
    assert "plb / per_verb / move_pages: [10, 40] -> [9, 40] (drifted)" in failures
    assert "conventional / end_state_ok: True -> False (drifted)" in failures


def test_main_missing_baseline_exits_2(tmp_path, capsys):
    # Baseline validation runs before the slow measurement, so these
    # main()-level paths are cheap to pin.
    assert main(["table1", "--baseline", str(tmp_path / "nope.json")]) == 2
    assert "run with --update first" in capsys.readouterr().err


def test_main_baseline_without_cycles_key_exits_1(tmp_path, capsys):
    path = tmp_path / "baseline.json"
    path.write_text('{"threshold": 0.1}\n')
    assert main(["table1", "--baseline", str(path)]) == 1
    assert "no 'cycles' matrix" in capsys.readouterr().err


def test_main_invalid_json_baseline_exits_1(tmp_path, capsys):
    path = tmp_path / "baseline.json"
    path.write_text("{truncated")
    assert main(["table1", "--baseline", str(path)]) == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_baseline_needs_exactly_one_guard(tmp_path, capsys):
    for argv in ([], ["table1", "shootdown"]):
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--baseline", str(tmp_path / "b.json")])
        assert exit_info.value.code == 2
    assert "--baseline needs exactly one GUARD" in capsys.readouterr().err


def test_unknown_guard_is_rejected(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["cycles"])
    assert exit_info.value.code == 2
    assert "unknown guard 'cycles'" in capsys.readouterr().err


def test_every_guard_passes_against_the_committed_baselines(capsys):
    """Tier 1 runs the pinned-number guards: Table 1 cycles (10% growth
    bound), the shootdown counters and the cluster x SMP matrix (exact),
    plus the §4.1.3 contracts of the last two."""
    assert main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == list(GUARDS)


def test_naming_two_guards_runs_both(monkeypatch, capsys):
    ran = []
    for name, guard in GUARDS.items():
        def measure(name=name, real=guard.measure):
            ran.append(name)
            return real()

        monkeypatch.setitem(GUARDS, name, guard._replace(measure=measure))
    assert main(["shootdown", "cluster-smp"]) == 0
    assert ran == ["shootdown", "cluster-smp"]
    out = capsys.readouterr().out
    assert "shootdown: all 22 pinned cells match baseline" in out
    assert "cluster-smp: all 108 pinned cells match baseline" in out


def test_contract_problems_fail_whatever_the_baseline_says(monkeypatch, capsys):
    """A problem the experiment reports is a floor: the guard fails on
    it even when every pinned cell matches."""
    guard = GUARDS["shootdown"]
    cells, _ = guard.measure()
    planted = guard._replace(measure=lambda: (cells, ["plb: planted"]))
    monkeypatch.setitem(GUARDS, "shootdown", planted)
    assert main(["shootdown"]) == 1
    out = capsys.readouterr().out
    assert "shootdown: 1 check(s) failed:" in out
    assert "  plb: planted" in out


def test_update_rewrites_the_baseline_it_checks(tmp_path):
    """``--update`` writes the cells of the run; checking against the
    written file then passes, and it is byte-identical to the committed
    baseline because nothing drifted."""
    path = tmp_path / "cluster_smp.json"
    assert main(["cluster-smp", "--update", "--baseline", str(path)]) == 0
    assert path.read_bytes() == GUARDS["cluster-smp"].baseline.read_bytes()
    assert main(["cluster-smp", "--baseline", str(path)]) == 0
