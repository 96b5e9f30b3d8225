#!/usr/bin/env python
"""Fail CI when any Table 1 cell's weighted cycles grow by >10%.

Runs the quick configuration of every application class (the same
``QUICK_RUNS`` the ``summary`` CLI command uses), extracts each model's
``cycles_total`` from the structured RunReports, and diffs the resulting
(workload, model) matrix against the committed baseline.

Usage::

    PYTHONPATH=src python tools/check_bench_regression.py            # check
    PYTHONPATH=src python tools/check_bench_regression.py --update   # rebaseline

The simulator is deterministic (seeded workloads, no wall-clock inputs),
so the baseline is exact: any drift at all is a real behavior change,
and growth beyond the threshold fails the build.  Improvements
(shrinking cycles) never fail, but rebaseline so the guard keeps teeth.

``--shootdown`` switches to the batched-shootdown guard: it runs the
group-verb workload (``repro.analysis.consistency.measure_batched``) at
8 CPUs for every model and demands the batched message/entry counters
match the committed baseline *exactly* — the workload is deterministic,
so any drift means the range-shootdown coalescing changed behavior.  An
absolute floor is enforced independently of the baseline: batched
messages must stay at least 4x below the legacy per-page count, and the
batched/legacy differential end-state check must pass.

``--cluster-smp`` guards the cluster x SMP invalidation matrix the same
way: exact equality, plus batched fan-out floors that bind whatever the
baseline says.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

BASELINE = REPO / "benchmarks" / "baselines" / "table1_cycles.json"
THRESHOLD = 0.10

CLUSTER_SMP_BASELINE = REPO / "benchmarks" / "baselines" / "cluster_smp.json"
#: Exact equality: the cluster x SMP invalidation workload is
#: deterministic, so any drift is a real protocol change.
CLUSTER_SMP_THRESHOLD = 0.0
#: Node and CPU counts swept on each axis of the N x M matrix.
CLUSTER_SMP_AXES = (1, 2, 4)

SHOOTDOWN_BASELINE = REPO / "benchmarks" / "baselines" / "shootdown_batched.json"
#: Exact equality: the group-verb workload is fully deterministic.
SHOOTDOWN_THRESHOLD = 0.0
#: Batched messages must beat the legacy per-page count by at least
#: this factor, baseline or no baseline (the ISSUE's acceptance floor).
SHOOTDOWN_REDUCTION_FLOOR = 4.0
SHOOTDOWN_CPUS = 8


def measure() -> dict[str, dict[str, int]]:
    """Weighted cycles per (workload, model) from the quick runs."""
    from repro.analysis.summary import QUICK_RUNS
    from repro.os.kernel import MODELS

    matrix: dict[str, dict[str, int]] = {}
    for name, runner in QUICK_RUNS:
        result = runner(tuple(MODELS))
        matrix[name] = {
            report.model: report.cycles_total for report in result.run_reports
        }
    return matrix


def measure_shootdown() -> dict[str, dict]:
    """Batched shootdown counters per model at 8 CPUs, plus verdicts.

    Returns ``{model: {"msgs": ..., "entries": ..., "legacy_msgs": ...,
    "reduction": ..., "end_state_ok": ..., "per_verb": {verb: [msgs,
    entries]}}}``.  Everything here is deterministic, so the committed
    baseline can be checked for exact equality.
    """
    from repro.analysis.consistency import measure_batched
    from repro.os.kernel import MODELS

    results: dict[str, dict] = {}
    for model in MODELS:
        result = measure_batched(model, n_cpus=SHOOTDOWN_CPUS)
        batched_msgs, legacy_msgs = result.workload_msgs
        results[model] = {
            "msgs": batched_msgs,
            "entries": sum(c.entries for c in result.batched.values()),
            "legacy_msgs": legacy_msgs,
            "reduction": round(legacy_msgs / batched_msgs, 2),
            "end_state_ok": result.end_state_ok,
            "per_verb": {
                verb: [cost.msgs, cost.entries]
                for verb, cost in sorted(result.batched.items())
            },
        }
    return results


def check_shootdown(current: dict, baseline: dict) -> list[str]:
    """Exact-match every pinned shootdown cell; enforce the floors.

    The floors (>= 4x message reduction, clean differential end state)
    bind regardless of what the baseline says — a baseline refreshed on
    a bad build cannot talk the guard out of them.
    """
    failures = []
    pinned = ("msgs", "entries", "legacy_msgs", "per_verb")
    for model, cell in baseline.items():
        if not isinstance(cell, dict):
            failures.append(
                f"{model}: malformed baseline cell {cell!r} "
                "(expected a counter mapping)"
            )
            continue
        now = current.get(model)
        if now is None:
            failures.append(f"{model}: missing from current run")
            continue
        for key in pinned:
            if key not in cell:
                failures.append(f"{model}: baseline is missing {key!r}")
            elif now[key] != cell[key]:
                failures.append(
                    f"{model}: {key} {cell[key]!r} -> {now[key]!r} "
                    "(deterministic counter drifted)"
                )
    for model, now in current.items():
        if not now["end_state_ok"]:
            failures.append(
                f"{model}: batched/legacy differential end-state check FAILED"
            )
        if now["reduction"] < SHOOTDOWN_REDUCTION_FLOOR:
            failures.append(
                f"{model}: message reduction {now['reduction']:.1f}x below "
                f"the {SHOOTDOWN_REDUCTION_FLOOR:.0f}x floor"
            )
    return failures


def measure_cluster_smp_matrix() -> dict[str, dict]:
    """Cluster x SMP invalidation costs per model over the N x M sweep.

    Returns ``{model: {"NxM": {"wire_msgs": ..., "holders": ...,
    "ipi_msgs": ..., "ipi_batches": ...}}}`` for every nodes x cpus
    combination in ``CLUSTER_SMP_AXES`` squared.  Deterministic, so the
    committed baseline is checked for exact equality.
    """
    from repro.analysis.consistency import measure_cluster_smp
    from repro.os.kernel import MODELS

    results: dict[str, dict] = {}
    for model in MODELS:
        cells = results.setdefault(model, {})
        for nodes in CLUSTER_SMP_AXES:
            for cpus in CLUSTER_SMP_AXES:
                cost = measure_cluster_smp(model, nodes=nodes, cpus=cpus)
                cells[f"{nodes}x{cpus}"] = {
                    "wire_msgs": cost.wire_msgs,
                    "holders": cost.holders,
                    "ipi_msgs": cost.ipi_msgs,
                    "ipi_batches": cost.ipi_batches,
                }
    return results


def check_cluster_smp(current: dict, baseline: dict) -> list[str]:
    """Exact-match every pinned cluster x SMP cell; enforce the floors.

    Floors bind regardless of the baseline: every node-local IPI must be
    part of a batched range shootdown (``ipi_msgs == ipi_batches`` — a
    per-page fan-out multiplies msgs without multiplying batches), and a
    multi-node invalidation must cost exactly one request/reply pair per
    holder node on the wire (``wire_msgs == 2 * holders``).
    """
    failures = []
    for model, cells in baseline.items():
        if not isinstance(cells, dict):
            failures.append(
                f"{model}: malformed baseline cell {cells!r} "
                "(expected a scale -> counter mapping)"
            )
            continue
        for scale, cell in cells.items():
            now = current.get(model, {}).get(scale)
            if now is None:
                failures.append(f"{model} @ {scale}: missing from current run")
            elif now != cell:
                failures.append(
                    f"{model} @ {scale}: {cell!r} -> {now!r} "
                    "(deterministic counter drifted)"
                )
    for model, cells in current.items():
        for scale, now in sorted(cells.items()):
            if now["ipi_msgs"] != now["ipi_batches"]:
                failures.append(
                    f"{model} @ {scale}: {now['ipi_msgs']} IPIs but only "
                    f"{now['ipi_batches']} batches (per-page fan-out crept "
                    "back in)"
                )
            if now["holders"] and now["wire_msgs"] != 2 * now["holders"]:
                failures.append(
                    f"{model} @ {scale}: {now['wire_msgs']} wire msgs for "
                    f"{now['holders']} holders (expected one request/reply "
                    "pair per holder)"
                )
    return failures


def check(current: dict, baseline: dict) -> list[str]:
    """Return one failure line per regressed, missing, or malformed cell.

    A malformed baseline cell (null, string, nested junk) is a hard
    failure, not a pass: a truncated or hand-mangled baseline must not
    read as "no regression".
    """
    failures = []
    for workload, models in baseline.items():
        if not isinstance(models, dict):
            failures.append(
                f"{workload}: malformed baseline entry {models!r} "
                "(expected a model -> cycles mapping)"
            )
            continue
        for model, base_cycles in models.items():
            if not isinstance(base_cycles, int) or isinstance(base_cycles, bool):
                failures.append(
                    f"{workload} / {model}: malformed baseline cell "
                    f"{base_cycles!r} (expected an integer cycle count)"
                )
                continue
            now = current.get(workload, {}).get(model)
            if now is None:
                failures.append(
                    f"{workload} / {model}: cell missing from current run"
                )
                continue
            growth = (now - base_cycles) / base_cycles if base_cycles else 0.0
            if growth > THRESHOLD:
                failures.append(
                    f"{workload} / {model}: {base_cycles} -> {now} cycles "
                    f"(+{growth * 100:.1f}% > {THRESHOLD * 100:.0f}%)"
                )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--update", action="store_true",
        help="rewrite the committed baseline from this run",
    )
    parser.add_argument(
        "--shootdown", action="store_true",
        help="guard batched range-shootdown counters (exact equality) "
        "instead of Table 1 cycles",
    )
    parser.add_argument(
        "--cluster-smp", action="store_true",
        help="guard the cluster x SMP invalidation matrix (exact "
        "equality plus batched fan-out floors) instead of Table 1 cycles",
    )
    parser.add_argument("--baseline", default=None)
    args = parser.parse_args(argv)
    if args.cluster_smp:
        default_path, key, measurer, checker, threshold = (
            CLUSTER_SMP_BASELINE, "cluster_smp", measure_cluster_smp_matrix,
            check_cluster_smp, CLUSTER_SMP_THRESHOLD,
        )
    elif args.shootdown:
        default_path, key, measurer, checker, threshold = (
            SHOOTDOWN_BASELINE, "shootdown", measure_shootdown,
            check_shootdown, SHOOTDOWN_THRESHOLD,
        )
    else:
        default_path, key, measurer, checker, threshold = (
            BASELINE, "cycles", measure, check, THRESHOLD,
        )
    baseline_path = Path(args.baseline) if args.baseline else default_path

    if args.update:
        current = measurer()
        baseline_path.parent.mkdir(parents=True, exist_ok=True)
        with open(baseline_path, "w") as fp:
            json.dump({"threshold": threshold, key: current}, fp,
                      indent=1, sort_keys=True)
            fp.write("\n")
        print(f"baseline updated: {baseline_path}")
        return 0

    # Validate the baseline *before* the (slow) measurement run so a
    # broken file fails in milliseconds, not minutes.
    if not baseline_path.exists():
        print(f"no baseline at {baseline_path}; run with --update first",
              file=sys.stderr)
        return 2
    with open(baseline_path) as fp:
        try:
            data = json.load(fp)
        except json.JSONDecodeError as error:
            print(f"bench regression: baseline {baseline_path} is not valid "
                  f"JSON ({error}); run with --update to rebuild",
                  file=sys.stderr)
            return 1
    baseline = data.get(key) if isinstance(data, dict) else None
    if not isinstance(baseline, dict):
        print(f"bench regression: baseline {baseline_path} has no '{key}' "
              "matrix; run with --update to rebuild", file=sys.stderr)
        return 1

    current = measurer()
    failures = checker(current, baseline)
    if args.cluster_smp:
        if failures:
            print(f"cluster-smp regression: {len(failures)} check(s) failed:")
            for line in failures:
                print("  " + line)
            return 1
        top = f"{CLUSTER_SMP_AXES[-1]}x{CLUSTER_SMP_AXES[-1]}"
        for model in sorted(current):
            cell = current[model][top]
            print(
                f"cluster-smp: {model} @ {top}: {cell['wire_msgs']} wire "
                f"msgs ({cell['holders']} holders), {cell['ipi_msgs']} IPIs "
                f"in {cell['ipi_batches']} batches"
            )
        cells = sum(len(scales) for scales in baseline.values())
        print(
            f"cluster-smp regression: all {cells} pinned cells match "
            "exactly (fan-out stayed batched, one req/reply per holder)"
        )
        return 0
    if args.shootdown:
        if failures:
            print(f"shootdown regression: {len(failures)} check(s) failed:")
            for line in failures:
                print("  " + line)
            return 1
        for model in sorted(current):
            cell = current[model]
            print(
                f"shootdown: {model}: {cell['msgs']} batched msgs "
                f"(legacy {cell['legacy_msgs']}, {cell['reduction']:.1f}x "
                f"reduction), {cell['entries']} entries, end-state OK"
            )
        print(
            f"shootdown regression: all {len(baseline)} models match the "
            f"pinned counters exactly (floor {SHOOTDOWN_REDUCTION_FLOOR:.0f}x)"
        )
        return 0
    cells = sum(
        len(models) if isinstance(models, dict) else 1
        for models in baseline.values()
    )
    if failures:
        print(f"bench regression: {len(failures)} of {cells} cells regressed:")
        for line in failures:
            print("  " + line)
        return 1
    print(f"bench regression: all {cells} Table 1 cells within "
          f"{THRESHOLD * 100:.0f}% of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
