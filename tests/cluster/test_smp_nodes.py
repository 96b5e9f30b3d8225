"""Cluster nodes hosting SMP kernels: fan-out batching and chaos.

A cluster node is no longer a bare single-CPU kernel — it hosts an
``SMPMachine``, so an incoming DSM ``invalidate_range`` must fan out to
the node's M CPUs as ONE batched range shootdown per remote CPU (riding
the node-local ShootdownBus), never one message per page.  The chaos
cases then crash such a node mid-protocol and demand recovery still
converges to gold with per-CPU protection caches in play.
"""

from __future__ import annotations

import pytest

from repro.cluster.chaos import run_cluster_case, run_cluster_sweep
from repro.cluster.dsm import HEARTBEAT_MISS_LIMIT, ClusterDSM
from repro.core.rights import AccessType
from repro.faults.plan import FaultPlan
from repro.os.kernel import MODELS


def warm_all_cpus(cluster: ClusterDSM) -> None:
    """Read every page on every CPU of every node: caches go hot."""
    for node in cluster.nodes.values():
        for vpn in cluster.vpns:
            cluster.get_readable(node, vpn)
            for cpu in range(node.kernel.n_cpus):
                node.smp.touch_on(
                    cpu, node.domain,
                    node.kernel.params.vaddr(vpn), AccessType.READ,
                )


class TestSMPNodeComposition:
    @pytest.mark.parametrize("model", MODELS)
    def test_node_hosts_smp_machine(self, model):
        cluster = ClusterDSM(model, nodes=2, pages=4, n_cpus=4)
        for node in cluster.nodes.values():
            assert node.kernel.n_cpus == 4
            assert node.smp.machines[0] is node.machine
            # Shards default to the CPU count: home placement works.
            assert node.kernel.authority.n_shards == 4

    @pytest.mark.parametrize("model", MODELS)
    def test_a_rejoined_node_boots_with_a_shard_per_cpu(self, model):
        cluster = ClusterDSM(model, nodes=3, pages=4, n_cpus=2)
        assert cluster.crash_node(2)
        for _ in range(HEARTBEAT_MISS_LIMIT + 1):
            cluster.tick()
        cluster.rejoin(2)
        kernel = cluster.nodes[2].kernel
        assert (kernel.n_cpus, kernel.authority.n_shards) == (2, 2)
        assert len(cluster.nodes[2].smp.machines) == 2

    @pytest.mark.parametrize("model", MODELS)
    def test_invalidate_range_is_one_batch_per_remote_cpu(self, model):
        """A K-page acquisition costs each node one batched range
        shootdown per remote CPU — the page factor collapses.  Every
        node charges the cluster's one store, so the whole fan-out
        shows in one delta."""
        nodes, cpus, k_pages = 3, 4, 6
        cluster = ClusterDSM(model, nodes=nodes, pages=8, n_cpus=cpus)
        warm_all_cpus(cluster)
        requester = cluster.nodes[0]
        requester.kernel.set_current_cpu(0)
        vpns = cluster.vpns[:k_pages]

        before = cluster.stats.snapshot()
        cluster.get_writable_range(requester, vpns)
        delta = cluster.stats.delta(before)

        ipi_msgs = delta["smp.shootdown.msgs"] + delta["smp.tlb_shootdown.msgs"]
        batches = (
            delta["smp.shootdown.batches"] + delta["smp.tlb_shootdown.batches"]
        )
        # One batched message per remote CPU on every node; never K
        # per-page IPIs.
        assert ipi_msgs == nodes * (cpus - 1)
        assert batches == ipi_msgs
        # One invalidate_range per holder node (the requester holds
        # its own copies).
        assert delta["cluster.smp.invalidate_batches"] == nodes - 1
        assert delta["cluster.smp.invalidate_pages"] == (nodes - 1) * k_pages

    def test_single_cpu_node_charges_no_smp_counters(self):
        cluster = ClusterDSM("plb", nodes=2, pages=4, n_cpus=1)
        warm_all_cpus(cluster)
        cluster.get_writable_range(cluster.nodes[0], cluster.vpns[:3])
        counters = cluster.stats.as_dict()
        assert not any(k.startswith("cluster.smp.") for k in counters), counters

    @pytest.mark.parametrize("model", MODELS)
    def test_touch_home_routes_to_shard_home_cpu(self, model):
        cluster = ClusterDSM(model, nodes=2, pages=8, n_cpus=4)
        node = cluster.nodes[0]
        for vpn in cluster.vpns:
            cluster.get_readable(node, vpn)
            addr = node.kernel.params.vaddr(vpn)
            node.touch_home(addr, AccessType.READ)
            home = node.cpu_for(vpn)
            assert home == node.kernel.authority.shard_of(vpn) % 4


class TestSMPNodeChaos:
    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("cpus", (2, 4))
    def test_node_crash_with_smp_cpus_converges(self, model, cpus):
        """The satellite case: crash a multi-CPU node mid-protocol and
        recovery must still converge — stale per-CPU protection caches
        on the surviving nodes cannot leak dead-node rights."""
        plan = FaultPlan.generate("cluster-crash", 3, n_ops=48)
        case = run_cluster_case(
            model, 3, nodes=3, pages=6, accesses=48, plan=plan, n_cpus=cpus,
        )
        assert case.ok, case.detail
        assert case.counters.get("cluster.node_deaths", 0) >= 1

    def test_crash_sweep_converges_at_multi_cpu_scale(self):
        sweep = run_cluster_sweep(
            ("plb",), seed=5, nodes=3, pages=4, accesses=24,
            kinds=("node_crash",), stride=8, n_cpus=2,
        )
        assert sweep.ok
        assert sweep.converged == sweep.cases
