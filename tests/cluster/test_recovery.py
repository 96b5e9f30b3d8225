"""Tests for failure detection, handoff, partitions and rejoin."""

from __future__ import annotations

import pytest

from repro.cluster.dsm import HEARTBEAT_MISS_LIMIT, ClusterDSM, recovery_percentile
from repro.cluster.node import stamp_page
from repro.core.rights import AccessType
from repro.os.kernel import MODELS
from repro.workloads.dsm import CopyState


@pytest.fixture(params=MODELS)
def cluster(request):
    return ClusterDSM(request.param, nodes=4, pages=4, seed=3)


def touch(cluster, node_id, vpn, access=AccessType.READ):
    node = cluster.nodes[node_id]
    node.machine.touch(node.domain, cluster.params.vaddr(vpn), access)
    return node


class TestCrashDetection:
    def test_crash_is_ground_truth_until_detected(self, cluster):
        assert cluster.crash_node(3)
        assert 3 in cluster.net.crashed
        assert cluster.nodes[3].alive  # belief unchanged so far
        assert 3 in cluster.live

    def test_heartbeats_declare_a_silent_node_dead(self, cluster):
        cluster.crash_node(3)
        for _ in range(HEARTBEAT_MISS_LIMIT + 1):
            cluster.tick()
        assert 3 in cluster.dead
        assert not cluster.nodes[3].alive
        assert cluster.stats["cluster.node_deaths"] == 1
        assert not cluster.split_brain_risk
        assert cluster.recovery_cycles  # the episode was measured

    def test_crash_refuses_below_two_running_nodes(self, cluster):
        assert cluster.crash_node(3)
        assert cluster.crash_node(2)
        assert not cluster.crash_node(1)
        assert cluster.stats["faults.skipped"] == 1

    def test_rpc_timeout_triggers_immediate_declaration(self, cluster):
        vpn = cluster.vpns[0]
        touch(cluster, 3, vpn, AccessType.WRITE)
        cluster.crash_node(3)
        # Reading from node 0 must fetch from the dead owner, time out,
        # declare it dead, hand the page off, and still succeed.
        touch(cluster, 0, vpn)
        assert 3 in cluster.dead
        assert cluster.stats["cluster.retries"] > 0
        assert cluster.stats["cluster.handoffs"] >= 1


class TestHandoff:
    def test_dirty_owner_crash_restores_the_flushed_image(self, cluster):
        vpn = cluster.vpns[0]
        psize = cluster.params.page_size
        writer = touch(cluster, 3, vpn, AccessType.WRITE)
        writer.write_page(vpn, stamp_page(psize, 7))
        cluster.tick()  # flush: stamp 7 is durable
        writer.write_page(vpn, stamp_page(psize, 8))  # never flushed
        cluster.crash_node(3)
        for _ in range(HEARTBEAT_MISS_LIMIT + 1):
            cluster.tick()
        entry = cluster.directory[vpn]
        assert entry.owner in cluster.live
        assert entry.state is CopyState.SHARED
        reader = touch(cluster, 0, vpn)
        assert reader.stamp(vpn) == 7  # the unflushed write is lost

    def test_surviving_copy_holder_inherits_ownership(self, cluster):
        vpn = cluster.vpns[1]
        touch(cluster, 3, vpn, AccessType.WRITE)
        touch(cluster, 1, vpn)  # demotes: node 1 holds a valid copy
        cluster.crash_node(3)
        for _ in range(HEARTBEAT_MISS_LIMIT + 1):
            cluster.tick()
        assert cluster.directory[vpn].owner == 1

    def test_coordinator_death_elects_a_successor(self, cluster):
        cluster.crash_node(0)
        for _ in range(HEARTBEAT_MISS_LIMIT + 1):
            cluster.tick()
        assert cluster.coordinator_id == min(cluster.live)
        assert cluster.stats["cluster.elections"] == 1


class TestPartition:
    def test_cut_link_is_detected_as_partition_not_death(self, cluster):
        vpn = cluster.vpns[0]
        touch(cluster, 1, vpn, AccessType.WRITE)
        cluster.net.cut(2, 1)
        touch(cluster, 2, vpn)  # must reach node 1 the long way round
        assert not cluster.dead
        assert cluster.stats["cluster.partitions.detected"] == 1
        assert cluster.stats["cluster.relayed"] >= 1
        assert cluster.stats["faults.recovered"] >= 1

    def test_heal_clears_partition_hints(self, cluster):
        cluster.net.cut(0, 1)
        cluster._partitioned.add(frozenset((0, 1)))
        cluster.heal_all()
        assert not cluster.net.partitions
        assert not cluster._partitioned
        assert cluster.stats["cluster.partitions.healed"] == 1


class TestRejoin:
    def test_rejoined_node_serves_reads_again(self, cluster):
        vpn = cluster.vpns[0]
        cluster.crash_node(3)
        for _ in range(HEARTBEAT_MISS_LIMIT + 1):
            cluster.tick()
        cluster.rejoin(3)
        assert 3 not in cluster.dead
        assert cluster.nodes[3].alive
        reader = touch(cluster, 3, vpn)
        assert reader.stamp(vpn) is not None
        assert cluster.stats["cluster.rejoins"] == 1

    @pytest.mark.parametrize("model", MODELS)
    def test_rejoin_keeps_the_dead_nodes_counters(self, model):
        """The replacement kernel charges the cluster's one store, like
        every node, so the totals never go backwards across a rejoin."""
        cluster = ClusterDSM(model, nodes=3, pages=4, seed=1, n_cpus=2)
        for node_id in sorted(cluster.nodes):
            for vpn in cluster.vpns:
                touch(cluster, node_id, vpn)
        before = cluster.merged_stats()
        assert cluster.crash_node(2)
        for _ in range(HEARTBEAT_MISS_LIMIT + 2):
            cluster.tick()
        assert 2 in cluster.dead
        cluster.rejoin(2)
        cluster.merged_stats().assert_monotonic(before)
        assert cluster.nodes[2].kernel.stats is cluster.stats

    def test_rejoining_a_live_member_is_rejected(self, cluster):
        from repro.faults.errors import ClusterConfigError

        with pytest.raises(ClusterConfigError):
            cluster.rejoin(1)

    def test_auto_rejoin_on_tick(self):
        cluster = ClusterDSM("plb", nodes=4, pages=4, seed=3, auto_rejoin=True)
        cluster.crash_node(3)
        for _ in range(HEARTBEAT_MISS_LIMIT + 2):
            cluster.tick()
        assert 3 not in cluster.dead
        assert cluster.nodes[3].alive


def test_recovery_percentile_is_the_nearest_rank_below():
    """``repro cluster`` and cluster serve share this one rank rule."""
    episodes = [10, 20, 30, 40]
    assert recovery_percentile([], 0.5) == 0
    assert recovery_percentile(episodes, 0.0) == 10
    assert recovery_percentile(episodes, 0.5) == 30
    assert recovery_percentile(episodes, 0.99) == 40
