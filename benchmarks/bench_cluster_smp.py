"""Cluster x SMP — DSM invalidation cost across composed scales.

Paper context: the single-address-space story scales out two ways at
once — more nodes sharing the space over a DSM interconnect, and more
CPUs per node sharing one kernel authority.  A multi-page write
acquisition must then pay two fan-outs: one interconnect message per
holder node, and one node-local shootdown per remote CPU.  Neither may
multiply by the page count K: the directory sends `invalidate_range`
(one wire message per holder), and each receiving node applies it as a
single batched range shootdown on its ShootdownBus (PR 9's
`shootdown_range`).

This bench sweeps nodes x cpus over {1,2,4}^2 for all three protection
models and records wire messages, holder count, node-local IPIs and
shootdown batches for a K=6-page acquisition.

Expectations checked:

* the experiment's contract holds (``measure_cluster_smp``'s
  ``problems``): wire messages are exactly one request/reply pair per
  holder node — independent of both K and the CPUs per node — and
  every node-local IPI is a batched range shootdown, so the page
  factor never reappears inside a node;
* IPIs scale with (participating nodes) x (cpus - 1), never with K;
* all three models pay identical wire and IPI costs — the DSM layer
  sits above the protection model.
"""

from __future__ import annotations

import pytest

from repro.analysis import benchout
from repro.analysis.consistency import measure_cluster_smp
from repro.analysis.report import format_table
from repro.obs.export import RunReport

AXES = [1, 2, 4]
MODELS = ["plb", "pagegroup", "conventional"]
K_PAGES = 6


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("cpus", AXES)
@pytest.mark.parametrize("nodes", AXES)
def test_cluster_smp_invalidation(benchmark, model, nodes, cpus):
    result = benchmark.pedantic(
        lambda: measure_cluster_smp(
            model, nodes=nodes, cpus=cpus, k_pages=K_PAGES
        ),
        rounds=1, iterations=1,
    )
    assert not result.problems
    assert result.holders == nodes - 1
    # One batched range shootdown per remote CPU of every participant.
    assert result.cost.msgs == nodes * (cpus - 1)


def test_report_cluster_smp(benchmark):
    def sweep():
        rows = []
        reports = []
        for nodes in AXES:
            for cpus in AXES:
                per_model = {}
                for model in MODELS:
                    result = measure_cluster_smp(
                        model, nodes=nodes, cpus=cpus, k_pages=K_PAGES
                    )
                    per_model[model] = result
                    cost = result.cost
                    reports.append(
                        RunReport(
                            title="cluster-smp",
                            model=model,
                            counters={
                                "cluster.wire_msgs": cost.wire,
                                "cluster.holders": result.holders,
                                "smp.ipi_msgs": cost.msgs,
                                "smp.ipi_batches": cost.batches,
                            },
                            cycles_total=0,
                            cycles_breakdown={},
                            params={"nodes": nodes, "cpus": cpus,
                                    "k_pages": K_PAGES},
                            summary={"problems": result.problems},
                        )
                    )
                # The DSM layer sits above the protection model: all
                # three models must pay identical costs.
                first = per_model[MODELS[0]]
                assert all(
                    (r.cost.wire, r.cost.msgs, r.cost.batches)
                    == (first.cost.wire, first.cost.msgs, first.cost.batches)
                    for r in per_model.values()
                )
                rows.append(
                    [
                        f"{nodes} x {cpus}",
                        first.cost.wire,
                        first.holders,
                        first.cost.msgs,
                        first.cost.batches,
                        "FAIL" if first.problems else "OK",
                    ]
                )
        return rows, reports

    rows, reports = benchmark.pedantic(sweep, rounds=1, iterations=1)
    benchout.record(
        "Cluster x SMP: one wire message per holder node, one batched "
        f"range shootdown per remote CPU (K={K_PAGES}-page acquisition)",
        format_table(
            [
                "nodes x cpus",
                "wire msgs",
                "holders",
                "node IPIs",
                "batches",
                "fan-out",
            ],
            rows,
            title="DSM invalidation cost at composed scales "
            "(all models identical; page factor K absent on both axes)",
        ),
        reports=reports,
    )
    # Direction: wire cost grows with nodes only, IPI cost with the
    # product of participants and remote CPUs — never with K.
    assert all(row[5] == "OK" for row in rows)
    by_scale = {row[0]: row for row in rows}
    assert by_scale["4 x 4"][1] == 6          # 3 holders x req/reply
    assert by_scale["4 x 4"][3] == 12         # 4 nodes x 3 remote CPUs
    assert by_scale["1 x 4"][1] == 0          # single node: no wire cost
    assert by_scale["4 x 1"][3] == 0          # single CPU: no IPI cost
