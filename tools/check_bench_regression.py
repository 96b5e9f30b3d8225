#!/usr/bin/env python
"""Fail CI when a pinned simulated number drifts or a §4.1.3 contract breaks.

Each guard measures one deterministic experiment and compares its cells
with a committed baseline under ``benchmarks/baselines/``:

* ``table1`` — weighted cycles per (workload, model) over the quick
  configuration of every application class (the ``QUICK_RUNS`` the
  ``summary`` command uses).  A cell may grow by at most 10%;
  improvements never fail, but rebaseline so the guard keeps teeth.
* ``shootdown`` — the batched group-verb workload
  (``repro.analysis.consistency.measure_batched``) at 8 CPUs for every
  model: batched and legacy messages, entries and per-verb counts, all
  exact.
* ``cluster-smp`` — the cluster x SMP invalidation matrix
  (``measure_cluster_smp`` over nodes x cpus in {1, 2, 4}^2): wire
  messages, holders, IPIs and batches, all exact.

The two §4.1.3 guards also fail on any contract problem their
experiment reports (the K-fold batching saving with a clean differential
end state; batched node-local fan-out and one request/reply pair per
holder).  Those floors hold whatever the baseline says, so a baseline
refreshed on a bad build cannot talk the guard out of them.

Usage::

    PYTHONPATH=src python tools/check_bench_regression.py            # all
    PYTHONPATH=src python tools/check_bench_regression.py shootdown  # one
    PYTHONPATH=src python tools/check_bench_regression.py --update   # rebaseline
    PYTHONPATH=src python tools/check_bench_regression.py table1 --baseline FILE
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, NamedTuple

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

BASELINES = REPO / "benchmarks" / "baselines"
#: Growth bound of the Table 1 cycle cells.
THRESHOLD = 0.10


def measure_table1() -> tuple[dict, list[str]]:
    """Weighted cycles per (workload, model) from the quick runs."""
    from repro.analysis.summary import QUICK_RUNS
    from repro.os.kernel import MODELS

    matrix = {}
    for name, runner in QUICK_RUNS:
        result = runner(tuple(MODELS))
        matrix[name] = {
            report.model: report.cycles_total for report in result.run_reports
        }
    return matrix, []


def measure_shootdown() -> tuple[dict, list[str]]:
    """The group-verb workload's counters per model at 8 CPUs."""
    from repro.analysis.consistency import measure_batched
    from repro.os.kernel import MODELS

    cells, problems = {}, []
    for model in MODELS:
        result = measure_batched(model, n_cpus=8)
        batched_msgs, legacy_msgs = result.workload_msgs
        cells[model] = {
            "msgs": batched_msgs,
            "entries": sum(cost.entries for cost in result.batched.values()),
            "legacy_msgs": legacy_msgs,
            "reduction": round(legacy_msgs / batched_msgs, 2),
            "end_state_ok": result.end_state_ok,
            "per_verb": {
                verb: [cost.msgs, cost.entries]
                for verb, cost in sorted(result.batched.items())
            },
        }
        problems += [f"{model}: {problem}" for problem in result.problems]
    return cells, problems


def measure_cluster_smp() -> tuple[dict, list[str]]:
    """One K-page DSM invalidation per model at every ``NxM`` scale."""
    from repro.analysis.consistency import measure_cluster_smp
    from repro.os.kernel import MODELS

    cells, problems = {}, []
    for model in MODELS:
        for nodes in (1, 2, 4):
            for cpus in (1, 2, 4):
                result = measure_cluster_smp(model, nodes=nodes, cpus=cpus)
                scale = f"{nodes}x{cpus}"
                cells.setdefault(model, {})[scale] = {
                    "wire_msgs": result.cost.wire,
                    "holders": result.holders,
                    "ipi_msgs": result.cost.msgs,
                    "ipi_batches": result.cost.batches,
                }
                problems += [f"{model} @ {scale}: {p}" for p in result.problems]
    return cells, problems


class Guard(NamedTuple):
    """One pinned experiment: its committed baseline file, the JSON key
    of its cells there, its growth bound, and the function measuring
    ``(cells, contract problems)``."""

    baseline: Path
    key: str
    threshold: float
    measure: Callable[[], tuple[dict, list[str]]]


GUARDS = {
    "table1": Guard(
        BASELINES / "table1_cycles.json", "cycles", THRESHOLD, measure_table1
    ),
    "shootdown": Guard(
        BASELINES / "shootdown_batched.json", "shootdown", 0.0, measure_shootdown
    ),
    "cluster-smp": Guard(
        BASELINES / "cluster_smp.json", "cluster_smp", 0.0, measure_cluster_smp
    ),
}


def check(current: dict, baseline: dict, threshold: float = THRESHOLD) -> list[str]:
    """One failure line per drifted, missing or malformed cell.

    Walks the nested baseline.  With ``threshold`` above 0 an integer
    cell may grow by at most that fraction; every other cell must match
    exactly.  A null or type-mismatched baseline cell is malformed, not
    a pass: a truncated or hand-mangled baseline must not read as "no
    regression".  A key only the current run has is reported too, so
    the baseline cannot silently fall behind the run.
    """
    failures = []

    def walk(current: dict, baseline: dict, where: str) -> None:
        for key, base in baseline.items():
            path = f"{where} / {key}" if where else str(key)
            now = current.get(key)
            if base is None:
                failures.append(f"{path}: malformed baseline cell None")
            elif key not in current:
                if isinstance(base, dict):
                    walk({}, base, path)
                else:
                    failures.append(f"{path}: cell missing from current run")
            elif type(base) is not type(now):
                failures.append(f"{path}: malformed baseline cell {base!r}")
            elif isinstance(base, dict):
                walk(now, base, path)
            elif type(base) is int and threshold > 0:
                growth = (now - base) / base if base else 0.0
                if growth > threshold:
                    failures.append(
                        f"{path}: {base} -> {now} (+{growth:.1%} > {threshold:.0%})"
                    )
            elif now != base:
                failures.append(f"{path}: {base!r} -> {now!r} (drifted)")
        prefix = f"{where}: " if where else ""
        failures.extend(
            f"{prefix}baseline is missing {key!r}"
            for key in current
            if key not in baseline
        )

    walk(current, baseline, "")
    return failures


def _count_cells(tree) -> int:
    return sum(map(_count_cells, tree.values())) if isinstance(tree, dict) else 1


def _load(path: Path, key: str) -> tuple[dict | None, int]:
    """The baseline's ``key`` matrix, or None and the exit status."""
    if not path.exists():
        print(f"no baseline at {path}; run with --update first", file=sys.stderr)
        return None, 2
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as error:
        print(f"bench regression: baseline {path} is not valid JSON ({error}); "
              "run with --update to rebuild", file=sys.stderr)
        return None, 1
    baseline = data.get(key) if isinstance(data, dict) else None
    if not isinstance(baseline, dict):
        print(f"bench regression: baseline {path} has no '{key}' matrix; "
              "run with --update to rebuild", file=sys.stderr)
        return None, 1
    return baseline, 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "guards", nargs="*", metavar="GUARD",
        help=f"guards to run, of: {', '.join(GUARDS)} (default: all)",
    )
    parser.add_argument(
        "--update", action="store_true",
        help="rewrite each guard's committed baseline from this run",
    )
    parser.add_argument(
        "--baseline", default=None,
        help="baseline file to use instead of the committed one "
        "(needs exactly one GUARD)",
    )
    args = parser.parse_args(argv)
    for name in args.guards:
        if name not in GUARDS:
            parser.error(f"unknown guard {name!r} (choose from {', '.join(GUARDS)})")
    if args.baseline and len(args.guards) != 1:
        parser.error("--baseline needs exactly one GUARD")
    paths = {
        name: Path(args.baseline) if args.baseline else GUARDS[name].baseline
        for name in args.guards or GUARDS
    }

    if args.update:
        for name, path in paths.items():
            guard = GUARDS[name]
            cells, _ = guard.measure()
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(path, "w") as fp:
                json.dump({"threshold": guard.threshold, guard.key: cells}, fp,
                          indent=1, sort_keys=True)
                fp.write("\n")
            print(f"baseline updated: {path}")
        return 0

    # Load every baseline before any measurement runs, so a broken file
    # fails at once.
    baselines = {}
    for name, path in paths.items():
        baselines[name], status = _load(path, GUARDS[name].key)
        if status:
            return status
    status = 0
    for name, baseline in baselines.items():
        guard = GUARDS[name]
        cells, problems = guard.measure()
        failures = check(cells, baseline, guard.threshold) + problems
        if failures:
            print(f"{name}: {len(failures)} check(s) failed:")
            for line in failures:
                print("  " + line)
            status = 1
            continue
        bound = f"within {guard.threshold:.0%} of" if guard.threshold else "match"
        print(f"{name}: all {_count_cells(baseline)} pinned cells {bound} baseline")
    return status


if __name__ == "__main__":
    sys.exit(main())
