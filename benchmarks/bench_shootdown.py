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

CPUS = [2, 4, 8]
MODELS = ["plb", "pagegroup", "conventional"]
PAGES = 24


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("cpus", CPUS)
def test_batched_shootdowns(model, cpus):
    result = measure_batched(model, n_cpus=cpus, pages=PAGES)
    assert not result.problems
    batched_msgs, legacy_msgs = result.workload_msgs
    # One message per remote CPU per verb: the page factor K collapses.
    assert batched_msgs < legacy_msgs


def test_report_shootdown_batching():
    rows = []
    for cpus in CPUS:
        for model in MODELS:
            result = measure_batched(model, n_cpus=cpus, pages=PAGES)
            assert not result.problems
            batched_msgs, legacy_msgs = result.workload_msgs
            rows.append(
                [
                    f"{cpus} CPUs",
                    model,
                    batched_msgs,
                    legacy_msgs,
                    sum(c.entries for c in result.batched.values()),
                    sum(c.cycles for c in result.batched.values()),
                    sum(c.cycles for c in result.legacy.values()),
                    f"{legacy_msgs / batched_msgs:.1f}x",
                ]
            )
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
    )
    # Direction: the absolute message saving grows with the CPU count.
    eight = [row for row in rows if row[0] == "8 CPUs"]
    two = [row for row in rows if row[0] == "2 CPUs"]
    assert all(row[3] - row[2] > 0 for row in rows)
    for row8, row2 in zip(eight, two):
        assert row8[3] - row8[2] > row2[3] - row2[2]
