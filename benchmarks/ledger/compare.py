"""A/B comparison of two sets of ledger runs.

    python3 benchmarks/ledger/compare.py --a A1.json A2.json ... \\
        --b B1.json B2.json ... [--json rows.json]

Each file is one ``run.py --out`` report.  Runs pair up per workload in
the order given (A's i-th run of a workload with B's i-th), so list them
in the order they ran, alternating which side went first.  For every
(metric, workload) the comparator prints each side's median and
quartiles, the share of pairs B won (ties count for neither) and, for
metrics with a bound, one verdict:

``better``
    B won at least nine tenths of the pairs and the medians differ by
    more than A's own spread (q3 - q1), or every B run beats every A run.
``worse``
    B's median is worse than A's by more than the metric's bound.
``unresolved``
    A's own spread is wider than the bound, so no change can be ruled out.
``unchanged``
    Otherwise.

The exit status is 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def _beats(x: float, y: float, better: str) -> bool:
    return x < y if better == "lower" else x > y


def verdict(a: list[float], b: list[float], better: str, bound: float | None) -> tuple[float, str]:
    """``(B's win share over paired runs, verdict)`` for one metric."""
    pairs = list(zip(a, b))
    wins = sum(_beats(y, x, better) for x, y in pairs) / len(pairs)
    if bound is None:
        return wins, "-"
    qa = _quartiles(a)
    median_a, median_b = qa[1], statistics.median(b)
    if all(_beats(y, x, better) for x in a for y in b) or (
        wins >= 0.9
        and _beats(median_b, median_a, better)
        and abs(median_b - median_a) > qa[2] - qa[0]
    ):
        return wins, "better"
    scale = abs(median_a) or 1.0
    worse_by = (median_b - median_a if better == "lower" else median_a - median_b) / scale
    if worse_by > bound:
        return wins, "worse"
    if (qa[2] - qa[0]) / scale > bound:
        return wins, "unresolved"
    return wins, "unchanged"


def _by_workload(paths: list[Path]) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    for path in paths:
        report = json.loads(path.read_text())
        runs.setdefault(report["workload"], []).append(report)
    return runs


def compare(a_paths: list[Path], b_paths: list[Path]) -> list[dict]:
    a_runs, b_runs = _by_workload(a_paths), _by_workload(b_paths)
    rows = []
    for workload in sorted(a_runs.keys() & b_runs.keys()):
        a_list, b_list = a_runs[workload], b_runs[workload]
        for name, spec in a_list[0]["metrics"].items():
            a = [run["metrics"][name]["value"] for run in a_list]
            b = [run["metrics"][name]["value"] for run in b_list]
            wins, outcome = verdict(a, b, spec["better"], spec.get("bound"))
            rows.append(
                {
                    "metric": name,
                    "workload": workload,
                    "unit": spec["unit"],
                    "a": _quartiles(a),
                    "b": _quartiles(b),
                    "pairs": min(len(a), len(b)),
                    "b_wins": wins,
                    "verdict": outcome,
                }
            )
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--a", nargs="+", type=Path, required=True, help="baseline reports")
    parser.add_argument("--b", nargs="+", type=Path, required=True, help="candidate reports")
    parser.add_argument("--json", type=Path, help="also write the rows here")
    args = parser.parse_args(argv)
    rows = compare(args.a, args.b)

    def cell(q: list[float]) -> str:
        return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"

    print(
        f"{'metric':<28} {'workload':<8} {'A median [q1, q3]':>36} "
        f"{'B median [q1, q3]':>36} {'B wins':>6}  verdict"
    )
    for row in rows:
        print(
            f"{row['metric']:<28} {row['workload']:<8} {cell(row['a']):>36} "
            f"{cell(row['b']):>36} {row['b_wins']:>6.2f}  {row['verdict']}"
        )
    if args.json is not None:
        args.json.write_text(json.dumps(rows, indent=1) + "\n")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
