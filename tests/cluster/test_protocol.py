"""Tests for the resilient coherence protocol on a healthy cluster."""

from __future__ import annotations

import pytest

from repro.cluster.dsm import LEASE_CYCLES, ClusterDSM
from repro.cluster.node import stamp_page
from repro.core.rights import AccessType
from repro.faults.errors import ClusterConfigError
from repro.os.kernel import MODELS
from repro.workloads.dsm import CopyState, SHARED_BASE_VPN


@pytest.fixture(params=MODELS)
def cluster(request):
    return ClusterDSM(request.param, nodes=3, pages=4, seed=2)


def touch(cluster, node_id, vpn, access=AccessType.READ):
    node = cluster.nodes[node_id]
    node.machine.touch(node.domain, cluster.params.vaddr(vpn), access)
    return node


class TestSetup:
    def test_needs_two_nodes(self):
        with pytest.raises(ClusterConfigError):
            ClusterDSM("plb", nodes=1, pages=4)

    def test_shared_segment_at_the_global_base(self, cluster):
        assert cluster.vpns[0] == SHARED_BASE_VPN
        bases = {node.segment.base_vpn for node in cluster.nodes.values()}
        assert bases == {SHARED_BASE_VPN}

    def test_node0_owns_everything_with_leases_clear(self, cluster):
        for entry in cluster.directory.values():
            assert entry.owner == 0
            assert entry.lease_until == 0


class TestCoherence:
    def test_remote_read_fetches_over_the_wire(self, cluster):
        vpn = cluster.vpns[0]
        touch(cluster, 1, vpn)
        entry = cluster.directory[vpn]
        assert entry.state is CopyState.SHARED
        assert 1 in entry.copyset
        assert cluster.stats["cluster.msg.sent"] > 0

    def test_remote_write_takes_exclusive_and_leases(self, cluster):
        vpn = cluster.vpns[0]
        touch(cluster, 1, vpn)
        touch(cluster, 2, vpn, AccessType.WRITE)
        entry = cluster.directory[vpn]
        assert entry.owner == 2
        assert entry.state is CopyState.EXCLUSIVE
        assert entry.copyset == {2}
        assert entry.lease_until > 0
        assert cluster._valid[vpn] == {2}

    def test_a_write_grant_leases_the_page_from_the_grant(self, cluster):
        vpn = cluster.vpns[0]
        touch(cluster, 2, vpn, AccessType.WRITE)
        # The grant commits after the verb's last message.
        assert cluster.directory[vpn].lease_until == cluster.net.clock + LEASE_CYCLES

    def test_written_stamp_propagates_to_readers(self, cluster):
        vpn = cluster.vpns[1]
        writer = touch(cluster, 2, vpn, AccessType.WRITE)
        writer.write_page(vpn, stamp_page(cluster.params.page_size, 42))
        reader = touch(cluster, 0, vpn)
        assert reader.stamp(vpn) == 42

    def test_demote_at_source_syncs_the_home_store(self, cluster):
        vpn = cluster.vpns[0]
        writer = touch(cluster, 1, vpn, AccessType.WRITE)
        writer.write_page(vpn, stamp_page(cluster.params.page_size, 9))
        touch(cluster, 2, vpn)  # read pulls the page from the writer
        assert cluster.home[vpn] == stamp_page(cluster.params.page_size, 9)
        assert cluster.directory[vpn].state is CopyState.SHARED

    def test_tick_flushes_exclusive_pages_durable(self, cluster):
        vpn = cluster.vpns[2]
        writer = touch(cluster, 1, vpn, AccessType.WRITE)
        writer.write_page(vpn, stamp_page(cluster.params.page_size, 5))
        flushed = cluster.tick()
        assert vpn in flushed
        assert cluster.home[vpn] == stamp_page(cluster.params.page_size, 5)
        assert cluster.directory[vpn].lease_until > 0

    def test_a_flush_renews_the_lease_at_the_flush(self, cluster):
        vpn = cluster.vpns[2]
        touch(cluster, 1, vpn, AccessType.WRITE)
        granted = cluster.directory[vpn].lease_until
        start = cluster.net.clock
        assert vpn in cluster.tick()
        renewed = cluster.directory[vpn].lease_until
        assert renewed > granted
        assert start < renewed - LEASE_CYCLES <= cluster.net.clock

    def test_fault_free_run_needs_no_recovery(self, cluster):
        for i, vpn in enumerate(cluster.vpns):
            touch(cluster, i % 3, vpn, AccessType.WRITE)
            touch(cluster, (i + 1) % 3, vpn)
        stats = cluster.merged_stats()
        assert stats.get("faults.injected", 0) == 0
        assert stats.get("cluster.node_deaths", 0) == 0
        assert stats.get("cluster.retries", 0) == 0

    def test_merged_stats_fold_in_every_node(self, cluster):
        """A read on node 1 lands in the cluster's one store, and
        ``merged_stats`` is a snapshot of it."""
        for node in cluster.nodes.values():
            assert node.kernel.stats is cluster.stats
        refs = cluster.stats["refs"]
        touch(cluster, 1, cluster.vpns[0])
        assert cluster.stats["refs"] > refs
        merged = cluster.merged_stats()
        assert merged is not cluster.stats
        assert merged.as_dict() == cluster.stats.as_dict()

    def test_reconcile_is_a_no_op_when_consistent(self, cluster):
        vpn = cluster.vpns[0]
        touch(cluster, 1, vpn)
        touch(cluster, 2, vpn, AccessType.WRITE)
        assert cluster.reconcile() == 0
