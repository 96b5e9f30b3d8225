"""S4.1.3 — Remote shootdown traffic: per-page loops vs batched ranges.

Paper context: consistency on a multiprocessor is the PLB's weak spot —
every rights change crosses the bus once per processor.  What the paper
does NOT require is paying that bus crossing once per *page*: a K-page
verb (revoke a segment's rights everywhere, move K pages into a group,
unmap a K-page range) can carry its whole page set in one message per
target CPU.  This bench sweeps 2/4/8 CPUs for all three protection
models and measures messages, entries invalidated and weighted cycles
for the same group-verb workload run both ways, on twin kernels whose
protection end state is differentially compared.

Expectations checked:

* the experiment's contract holds (``measure_batched``'s ``problems``):
  batched messages are exactly K-fold fewer than legacy for the same
  entries at every CPU count (the per-CPU factor N-1 — and the
  conventional model's per-domain factor D — survive; only the page
  factor K collapses), and the differential end-state check passes
  (batched == legacy rights, residency and grouping, clean invariants
  on every CPU);
* batching saves messages, and the absolute saving grows with the CPU
  count.
"""

from __future__ import annotations

import pytest

from repro.analysis import benchout
from repro.analysis.consistency import measure_batched
from repro.analysis.report import format_table
from repro.obs.export import RunReport

CPUS = [2, 4, 8]
MODELS = ["plb", "pagegroup", "conventional"]
PAGES = 24


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("cpus", CPUS)
def test_batched_shootdowns(benchmark, model, cpus):
    result = benchmark.pedantic(
        lambda: measure_batched(model, n_cpus=cpus, pages=PAGES),
        rounds=1, iterations=1,
    )
    assert not result.problems
    batched_msgs, legacy_msgs = result.workload_msgs
    # One message per remote CPU per verb: the page factor K collapses.
    assert batched_msgs < legacy_msgs


def test_report_shootdown_batching(benchmark):
    def sweep():
        rows = []
        reports = []
        for cpus in CPUS:
            for model in MODELS:
                result = measure_batched(model, n_cpus=cpus, pages=PAGES)
                assert not result.problems
                batched_msgs, legacy_msgs = result.workload_msgs
                batched_entries = sum(
                    c.entries for c in result.batched.values()
                )
                batched_cycles = sum(c.cycles for c in result.batched.values())
                legacy_cycles = sum(c.cycles for c in result.legacy.values())
                rows.append(
                    [
                        f"{cpus} CPUs",
                        model,
                        batched_msgs,
                        legacy_msgs,
                        batched_entries,
                        batched_cycles,
                        legacy_cycles,
                        f"{legacy_msgs / batched_msgs:.1f}x",
                    ]
                )
                reports.append(
                    RunReport(
                        title="shootdown-batch",
                        model=model,
                        counters={
                            "smp.shootdown.msgs": batched_msgs,
                            "smp.shootdown.msgs.legacy": legacy_msgs,
                            "smp.shootdown.entries": batched_entries,
                        },
                        cycles_total=batched_cycles,
                        cycles_breakdown={
                            "batched": batched_cycles,
                            "legacy": legacy_cycles,
                        },
                        params={"n_cpus": cpus, "pages": PAGES},
                        summary={
                            "reduction": round(legacy_msgs / batched_msgs, 2),
                            "end_state_ok": result.end_state_ok,
                        },
                    )
                )
        return rows, reports

    rows, reports = benchmark.pedantic(sweep, rounds=1, iterations=1)
    benchout.record(
        "Section 4.1.3: Batched range shootdowns vs per-page loops "
        "(group-verb workload, K=8 pages)",
        format_table(
            [
                "CPUs",
                "model",
                "batched msgs",
                "legacy msgs",
                "entries (both)",
                "batched cycles",
                "legacy cycles",
                "msg reduction",
            ],
            rows,
            title="One bus message per CPU per multi-page verb "
            "(paper: consistency cost scales with processors, "
            "not with pages per verb)",
        ),
        reports=reports,
    )
    # Direction: the absolute message saving grows with the CPU count.
    eight = [row for row in rows if row[0] == "8 CPUs"]
    two = [row for row in rows if row[0] == "2 CPUs"]
    assert all(row[3] - row[2] > 0 for row in rows)
    for row8, row2 in zip(eight, two):
        assert row8[3] - row8[2] > row2[3] - row2[2]
