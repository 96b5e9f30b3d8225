"""The bench-regression gate's comparison logic (tools/).

Pins the contract that a baseline Table 1 cell missing from the current
run is a hard failure — silently dropping a (workload, model) cell must
not read as "no regression".
"""

from __future__ import annotations

import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[2] / "tools"
sys.path.insert(0, str(TOOLS))

from check_bench_regression import (  # noqa: E402
    THRESHOLD,
    check,
    check_shootdown,
    main,
)


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


class TestCheckThroughput:
    """``--shootdown`` pins the batched bus's invalidation throughput:
    per model, the messages (and entries) a group-verb workload costs
    against the legacy one-message-per-page count, cell by cell."""

    def test_within_threshold_passes(self):
        current = {model: dict(cell) for model, cell in SD_BASELINE.items()}
        assert check_shootdown(current, SD_BASELINE) == []

    def test_missing_model_ratio_fails(self):
        current = {"conventional": _sd_cell(msgs=20, legacy=160)}
        assert check_shootdown(current, SD_BASELINE) == [
            "plb: missing from current run"
        ]

    def test_malformed_ratio_cell_is_a_named_failure(self):
        cell = _sd_cell()
        del cell["msgs"]
        failures = check_shootdown({"plb": _sd_cell()}, {"plb": cell})
        assert len(failures) == 1
        assert "plb" in failures[0] and "'msgs'" in failures[0]

    def test_non_dict_cell_is_a_named_failure(self):
        failures = check_shootdown({"plb": _sd_cell()}, {"plb": 8.0})
        assert len(failures) == 1
        assert "malformed" in failures[0]


def test_main_missing_baseline_exits_2(tmp_path, capsys):
    # Baseline validation runs before the slow measurement, so these
    # main()-level paths are cheap to pin.
    assert main(["--baseline", str(tmp_path / "nope.json")]) == 2
    assert "run with --update first" in capsys.readouterr().err


def test_main_baseline_without_cycles_key_exits_1(tmp_path, capsys):
    path = tmp_path / "baseline.json"
    path.write_text('{"threshold": 0.1}\n')
    assert main(["--baseline", str(path)]) == 1
    assert "no 'cycles' matrix" in capsys.readouterr().err


def test_main_invalid_json_baseline_exits_1(tmp_path, capsys):
    path = tmp_path / "baseline.json"
    path.write_text("{truncated")
    assert main(["--baseline", str(path)]) == 1
    assert "not valid JSON" in capsys.readouterr().err
