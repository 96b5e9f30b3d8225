"""Tests for the distributed shared VM workload (Table 1 rows 5-7)."""

from __future__ import annotations

import pytest

from repro.core.rights import AccessType
from repro.workloads.dsm import CopyState, DSMCluster, SHARED_BASE_VPN


@pytest.fixture(params=["plb", "pagegroup", "conventional"])
def cluster(request):
    return DSMCluster(request.param, nodes=3, pages=8, seed=2)


class TestSetup:
    def test_shared_segment_same_global_address_everywhere(self, cluster):
        """Context-independent addressing across the cluster."""
        bases = {node.segment.base_vpn for node in cluster.nodes}
        assert bases == {SHARED_BASE_VPN}

    def test_node0_owns_everything_initially(self, cluster):
        for entry in cluster.directory.values():
            assert entry.owner == 0
            assert entry.state is CopyState.EXCLUSIVE

    def test_needs_two_nodes(self):
        with pytest.raises(ValueError):
            DSMCluster("plb", nodes=1, pages=4)


class TestCoherence:
    def vaddr(self, cluster, vpn_offset=0):
        return cluster.nodes[0].kernel.params.vaddr(SHARED_BASE_VPN + vpn_offset)

    def test_remote_read_fetches_copy(self, cluster):
        reader = cluster.nodes[1]
        reader.machine.read(reader.domain, self.vaddr(cluster))
        entry = cluster.directory[SHARED_BASE_VPN]
        assert entry.state is CopyState.SHARED
        assert 1 in entry.copyset
        assert cluster.stats["dsm.msg.fetch"] == 1

    def test_remote_write_invalidates_other_copies(self, cluster):
        reader = cluster.nodes[1]
        writer = cluster.nodes[2]
        vaddr = self.vaddr(cluster)
        reader.machine.read(reader.domain, vaddr)
        writer.machine.write(writer.domain, vaddr)
        entry = cluster.directory[SHARED_BASE_VPN]
        assert entry.owner == 2
        assert entry.state is CopyState.EXCLUSIVE
        assert entry.copyset == {2}
        # Reader's next access must re-fetch.
        before = cluster.stats["dsm.msg.fetch"]
        reader.machine.read(reader.domain, vaddr)
        assert cluster.stats["dsm.msg.fetch"] == before + 1

    def test_write_demotes_then_read_shares(self, cluster):
        writer = cluster.nodes[1]
        vaddr = self.vaddr(cluster)
        writer.machine.write(writer.domain, vaddr)
        owner_reader = cluster.nodes[0]
        owner_reader.machine.read(owner_reader.domain, vaddr)
        entry = cluster.directory[SHARED_BASE_VPN]
        assert entry.state is CopyState.SHARED
        assert {0, 1} <= entry.copyset | {entry.owner}

    def test_data_travels_with_pages(self, cluster):
        """The page image actually moves between nodes' memories."""
        owner = cluster.nodes[0]
        vpn = SHARED_BASE_VPN
        pfn = owner.kernel.translations.pfn_for(vpn)
        owner.kernel.memory.write_page(pfn, b"payload" + bytes(64))
        reader = cluster.nodes[1]
        reader.machine.read(reader.domain, self.vaddr(cluster))
        got = reader.kernel.memory.read_page(reader.kernel.translations.pfn_for(vpn))
        assert got.startswith(b"payload")

    def test_repeated_local_reads_take_no_protocol_traffic(self, cluster):
        reader = cluster.nodes[1]
        vaddr = self.vaddr(cluster)
        reader.machine.read(reader.domain, vaddr)
        fetches = cluster.stats["dsm.msg.fetch"]
        for _ in range(10):
            reader.machine.read(reader.domain, vaddr)
        assert cluster.stats["dsm.msg.fetch"] == fetches


class TestWorkloadPatterns:
    def test_migratory_generates_invalidates(self, cluster):
        stats = cluster.run_migratory(rounds=1, refs_per_round=80)
        assert stats["dsm.msg.invalidate"] > 0
        assert stats["dsm.get_writable"] > 0

    def test_producer_consumer_fans_out_reads(self, cluster):
        stats = cluster.run_producer_consumer(iterations=3, region_pages=4)
        assert stats["dsm.get_readable"] > 0
        # Each iteration the producer's writes invalidate the consumers.
        assert stats["dsm.msg.invalidate"] > 0

    def test_same_protocol_traffic_across_models(self):
        """Coherence decisions depend on the trace, not the model."""
        traffic = {}
        for model in ("plb", "pagegroup", "conventional"):
            cluster = DSMCluster(model, nodes=3, pages=8, seed=2)
            stats = cluster.run_migratory(rounds=1, refs_per_round=80)
            traffic[model] = (
                stats["dsm.msg.fetch"],
                stats["dsm.msg.invalidate"],
                stats["dsm.get_writable"],
            )
        assert len(set(traffic.values())) == 1


class TestFalseSharing:
    """§4.3: page-granular coherence manufactures false sharing."""

    def test_false_sharing_ping_pongs(self):
        cluster = DSMCluster("plb", nodes=2, pages=8, seed=2)
        stats = cluster.run_false_sharing(rounds=10, pages=2)
        # Every round invalidates both nodes' copies of both pages.
        assert stats["dsm.msg.invalidate"] >= 2 * 10 * 2 - 4

    def test_split_pages_settle(self):
        cluster = DSMCluster("plb", nodes=2, pages=8, seed=2)
        stats = cluster.run_split_pages(rounds=10, pages=2)
        # After each node owns its pages, no further traffic.
        assert stats["dsm.msg.invalidate"] <= 4

    def test_false_sharing_costs_dominate_control(self):
        cluster_fs = DSMCluster("plb", nodes=2, pages=8, seed=2)
        cluster_sp = DSMCluster("plb", nodes=2, pages=8, seed=2)
        fs = cluster_fs.run_false_sharing(rounds=10, pages=2)
        sp = cluster_sp.run_split_pages(rounds=10, pages=2)
        assert fs["dsm.msg.fetch"] > 5 * max(sp["dsm.msg.fetch"], 1)


class TestTable1Verbs:
    def test_invalidate_sets_rights_none(self):
        """Table 1 'Invalidate': make the page inaccessible locally."""
        cluster = DSMCluster("plb", nodes=2, pages=4, seed=2)
        reader, writer = cluster.nodes[0], cluster.nodes[1]
        vaddr = reader.kernel.params.vaddr(SHARED_BASE_VPN)
        writer.machine.write(writer.domain, vaddr)
        # Node 0 (previous owner) was invalidated: its next read faults.
        result = reader.machine.read(reader.domain, vaddr)
        assert result.faulted

    def test_get_readable_leaves_read_only(self):
        cluster = DSMCluster("plb", nodes=2, pages=4, seed=2)
        reader = cluster.nodes[1]
        vaddr = reader.kernel.params.vaddr(SHARED_BASE_VPN)
        reader.machine.read(reader.domain, vaddr)
        writes_before = cluster.stats["dsm.get_writable"]
        reader.machine.write(reader.domain, vaddr)  # must upgrade
        assert cluster.stats["dsm.get_writable"] == writes_before + 1


class TestAggregation:
    def test_total_stats_merges_all_nodes(self):
        """Every node kernel charges the cluster's one store."""
        cluster = DSMCluster("plb", nodes=2, pages=4, seed=2)
        for node in cluster.nodes:
            assert node.kernel.stats is cluster.stats
        vaddr = cluster.nodes[1].kernel.params.vaddr(SHARED_BASE_VPN)
        cluster.nodes[1].machine.read(cluster.nodes[1].domain, vaddr)
        assert cluster.stats["dsm.get_readable"] == 1
        # Node 1's hardware and kernel events land in the one store.
        assert cluster.stats["refs"] >= 1
        assert cluster.stats["kernel.trap"] > 0
