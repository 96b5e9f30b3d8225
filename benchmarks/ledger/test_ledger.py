"""Tests of the ledger itself, on tiny units (outside tier-1's testpaths).

    PYTHONPATH=src python -m pytest -q benchmarks/ledger
"""

from __future__ import annotations

import json
import math
import re

import pytest

import compare
import run
import units
from layers import LAYERS, LayerTracer, Probes, _resolve
from repro.serve.driver import run_serve

WORKLOADS = sorted(run.WORKLOADS)


@pytest.fixture(scope="module")
def reports():
    """One tiny run of every workload, untraced and traced, at seed 0."""
    return {
        (name, trace): run.measure(name, 0, 0, trace, tiny=True)[0]
        for name in WORKLOADS
        for trace in (False, True)
    }


def test_benchmark_json_keeps_the_contract():
    catalog = run.CATALOG
    assert [w["name"] for w in catalog["workloads"]] == list(run.WORKLOADS)
    names = [m["name"] for m in catalog["end_to_end"] + catalog["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in names)
    assert len(catalog["end_to_end"]) <= 16 and len(catalog["per_layer"]) <= 128
    bounds = {m["name"]: m["bound"] for m in catalog["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_declared_metric_is_reported_with_its_unit(reports, name, trace):
    report = reports[name, trace]
    declared = run.CATALOG["per_layer" if trace else "end_to_end"]
    assert report["correct"], [u["problems"] for u in report["units"]]
    assert report["attempted"] > 0 and report["failed"] == 0
    assert {m["name"]: m["unit"] for m in declared} == {
        metric: spec["unit"] for metric, spec in report["metrics"].items()
    }
    if not trace:
        assert all(spec["value"] > 0 for spec in report["metrics"].values())


@pytest.mark.parametrize("name", WORKLOADS)
def test_digests_are_deterministic_and_match_the_pins(name):
    workload = run.WORKLOADS[name]
    pins = run.load_pins()[name]
    with Probes() as probes:
        first, second = (
            run.run_unit(workload, 1, run.REFERENCE, workload.tiny, probes, pins)
            for _ in range(2)
        )
    assert first.digest == second.digest
    assert first.pinned and not first.result.problems


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_units_reproduce_the_untraced_digests(reports, name):
    report = reports[name, True]
    timed = report["units"][1:]  # after the warm-up: untraced units, then their twins
    untraced, traced = timed[: len(timed) // 2], timed[len(timed) // 2 :]
    assert [u["digest"] for u in traced] == [u["digest"] for u in untraced]
    assert report["correct"]


def test_tracer_restores_every_wrapped_method():
    before = {
        (path, name): _resolve(path).__dict__.get(name)
        for _, _, path, methods in LAYERS
        for name in methods
    }
    with LayerTracer():
        pass
    after = {(path, name): _resolve(path).__dict__.get(name) for path, name in before}
    assert after == before


@pytest.mark.parametrize(
    "run_unit, config",
    [
        (units.run_serve_unit, units.serve_config),
        (units.run_cluster_unit, units.cluster_config),
    ],
    ids=["serve", "cluster"],
)
def test_served_units_equal_a_plain_run_serve(run_unit, config):
    with Probes() as probes:
        unit = run_unit(7, 60, probes)
    plain = run_serve(config(7, 60))
    assert {m: d.as_dict() for m, d in unit.deltas.items()} == {
        m: plain.stats[m].as_dict() for m in plain.stats
    }


def test_tail_rank_keeps_ten_samples_beyond():
    for n in range(20, 3000):
        rank = run.tail_rank(n)
        assert n - rank >= 10
        assert math.ceil(n / 2) <= rank <= math.ceil(0.99 * n)
    assert run.tail_rank(2000) == 1980  # p99 once there are enough samples


@pytest.mark.parametrize("name", ["serve", "cluster"])
def test_virt_tail_is_reported_with_ten_samples_beyond(reports, name):
    detail = reports[name, False]["detail"]
    assert detail["virt_samples"] >= 20
    assert detail["virt_tail_beyond"] >= 10


def test_traced_runs_stress_the_layers_they_claim(reports):
    layer = {name: reports[name, True]["metrics"] for name in WORKLOADS}

    def value(name, metric):
        return layer[name][metric]["value"]

    assert value("serve", "obs.self_share") > 0
    assert value("table1", "obs.self_share") == value("smp", "obs.self_share") == 0
    assert value("table1", "os.bus.msgs") == 0
    assert value("smp", "os.bus.msgs") > 0 and value("cluster", "os.bus.msgs") > 0
    for name in ("table1", "serve", "smp"):
        assert value(name, "cluster.calls") == 0
        assert value(name, "cluster.msgs_per_req") == 0
    assert value("cluster", "cluster.calls") > 0
    for name in WORKLOADS:
        assert abs(value(name, "trace.accounted_ratio") - 1) <= 0.05


def test_a_tampered_digest_fails_the_run(tmp_path, monkeypatch, capsys):
    pins = run.load_pins()
    size = str(run.WORKLOADS["table1"].tiny)
    pins["table1"][size][str(run.REFERENCE)] = "0" * 64
    tampered = tmp_path / "digests.json"
    tampered.write_text(json.dumps(pins))
    monkeypatch.setattr(run, "DIGESTS", tampered)
    status = run.main(["--workload", "table1", "--seed", "0", "--seconds", "0", "--tiny"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status != 0
    assert not result["correct"]
    assert 0 < result["failed"] < result["attempted"]


def _report(value):
    return {
        "workload": "serve",
        "metrics": {"m": {"value": value, "unit": "s", "better": "lower", "bound": 0.1}},
    }


@pytest.mark.parametrize(
    "a, b, outcome",
    [
        ([10, 10.2, 9.9, 10.1, 10, 10.1, 9.9, 10, 10.2, 10], [8, 8.1, 7.9, 8, 8.2, 8, 7.9, 8.1, 8, 8], "better"),
        ([10, 10.2, 9.9, 10.1, 10], [12, 12.1, 11.9, 12, 12.2], "worse"),
        ([10, 10.2, 9.9, 10.1, 10], [10.1, 10, 10.2, 9.9, 10], "unchanged"),
        ([10, 14, 7, 12, 9], [10, 11, 9, 12, 9], "unresolved"),
    ],
)
def test_compare_verdicts(tmp_path, a, b, outcome):
    paths = {}
    for side, values in (("a", a), ("b", b)):
        paths[side] = []
        for i, value in enumerate(values):
            path = tmp_path / f"{side}{i}.json"
            path.write_text(json.dumps(_report(value)))
            paths[side].append(path)
    (row,) = compare.compare(paths["a"], paths["b"])
    assert row["verdict"] == outcome
    assert compare.main(["--a", *map(str, paths["a"]), "--b", *map(str, paths["b"])]) == (
        1 if outcome == "worse" else 0
    )
