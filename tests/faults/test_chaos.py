"""Fault plans through the kernel oracle: recoverable plans converge,
corrupted authority is detected, and the failure dump replays."""

from __future__ import annotations

import json

import pytest

from repro.check import run_check
from repro.faults import FaultPlan
from repro.os.kernel import MODELS

RECOVERABLE_PRESETS = ("disk", "bitrot", "mce", "shootdown", "flaky-plb", "mixed")


class TestRecoverablePlans:
    @pytest.mark.parametrize("model", MODELS)
    def test_mixed_plan_converges_to_gold(self, model):
        result = run_check("fuzz", 0, (model,), plan="mixed", n_ops=120)
        assert result.ok, result.divergence and result.divergence.describe()
        assert result.counters[model].get("faults.injected", 0) >= 1
        assert result.refs_checked > 0

    @pytest.mark.parametrize("preset", RECOVERABLE_PRESETS)
    def test_every_recoverable_preset_converges_on_plb(self, preset):
        result = run_check("fuzz", 0, ("plb",), plan=preset, n_ops=120)
        assert result.ok, result.divergence and result.divergence.describe()

    def test_disk_preset_converges_under_paging_pressure(self):
        # The paging scenario generates real disk traffic, so the
        # disk-site events actually fire.
        result = run_check("paging", 0, ("plb",), plan="disk", n_ops=120)
        assert result.ok
        assert result.counters["plb"].get("faults.injected", 0) >= 1

    @pytest.mark.parametrize("model", MODELS)
    def test_no_plan_run_is_clean(self, model):
        result = run_check("fuzz", 0, (model,), n_ops=120)
        assert result.ok
        # No fault injected, no scrub repair: no recovery counter at all.
        assert result.counters == {}


class TestUnrecoverableDivergence:
    # Some seeds legitimately heal (a later rights op overwrites the
    # corrupted cell before the end-state sweep), so the pinned seeds
    # are ones where the corruption is verified to survive.
    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("seed", [1, 2])
    def test_corrupted_authority_is_detected(self, model, seed):
        result = run_check("fuzz", seed, (model,), plan="unrecoverable", n_ops=120)
        assert not result.ok
        assert result.divergence is not None

    def test_failure_dump_is_replayable_json(self):
        result = run_check("fuzz", 1, ("plb",), plan="unrecoverable", n_ops=120)
        assert not result.ok
        dump = json.loads(json.dumps(result.dump()))
        assert dump["scenario"] == "fuzz"
        assert dump["models"] == ["plb"]
        assert dump["seed"] == 1
        assert dump["divergence"]["kind"]
        assert dump["span_trail"]
        # Replaying the dumped plan reproduces the same divergence.
        replayed = run_check(
            "fuzz", 1, ("plb",), plan=FaultPlan.from_dict(dump["plan"]), n_ops=120
        )
        assert not replayed.ok
        assert replayed.divergence.kind == result.divergence.kind
        assert replayed.divergence.op_index == result.divergence.op_index
        assert replayed.divergence.expected == result.divergence.expected


class TestDeterminism:
    def test_same_seed_same_counters(self):
        a = run_check("fuzz", 3, ("pagegroup",), plan="mixed", n_ops=120)
        b = run_check("fuzz", 3, ("pagegroup",), plan="mixed", n_ops=120)
        assert a.ok == b.ok
        assert a.counters == b.counters
        assert a.ops_total == b.ops_total
        assert a.refs_checked == b.refs_checked


class TestSMPChaos:
    @pytest.mark.parametrize("model", MODELS)
    def test_shootdown_plan_converges_on_four_cpus(self, model):
        """Dropped/delayed shootdowns on a real multiprocessor: the
        scrubber must repair every CPU's stale state before the per-CPU
        end-state sweep audits it against gold."""
        result = run_check(
            "fuzz", 0, (model,), plan="shootdown", n_ops=80, n_cpus=4
        )
        assert result.ok, result.divergence and result.divergence.describe()
        assert result.n_cpus == 4

    def test_smp_run_is_deterministic(self):
        a = run_check("fuzz", 5, ("plb",), plan="mixed", n_ops=80, n_cpus=3)
        b = run_check("fuzz", 5, ("plb",), plan="mixed", n_ops=80, n_cpus=3)
        assert a.ok == b.ok
        assert a.counters == b.counters
        assert a.refs_checked == b.refs_checked

    def test_dump_records_the_cpu_count(self):
        result = run_check(
            "fuzz", 1, ("plb",), plan="unrecoverable", n_ops=120, n_cpus=2
        )
        assert not result.ok
        assert json.loads(json.dumps(result.dump()))["n_cpus"] == 2

    @pytest.mark.parametrize("seed", [0, 1])
    def test_shootdown_plan_converges_on_four_cpus_four_shards(self, seed):
        """The shootdown fault site with the authority split over four
        home shards, every model in lockstep."""
        result = run_check(
            "fuzz", seed, plan="shootdown", n_ops=120, n_cpus=4, n_shards=4
        )
        assert result.ok, result.divergence and result.divergence.describe()
        assert all(
            result.counters[model].get("faults.injected", 0) >= 1 for model in MODELS
        )
