"""Per-node message coalescing on the cluster interconnect.

The DSM's two chatty flows — the periodic writeback flush and the
get-writable invalidate fan-out — each collapse their per-page messages
into one per-node batch: ``writeback_batch`` carries every exclusive
page an owner flushes this tick, ``invalidate_range`` carries every
copy one holder must drop.  These tests pin the wire-cost model (K
pages share one header) and the protocol-visible effects (same end
state, fewer messages, fewer interconnect cycles).
"""

from __future__ import annotations

import pytest

from repro.cluster.dsm import ClusterDSM
from repro.cluster.interconnect import LATENCY_CYCLES, PAGE_LATENCY_CYCLES, Interconnect
from repro.cluster.messages import Message
from repro.cluster.node import stamp_page
from repro.core.rights import AccessType, Rights
from repro.os.kernel import MODELS
from repro.sim.stats import Stats


def touch(cluster, node_id, vpn, access=AccessType.READ):
    node = cluster.nodes[node_id]
    node.machine.touch(node.domain, cluster.params.vaddr(vpn), access)
    return node


class TestBatchMessages:
    def test_payloads_must_match_vpns(self):
        with pytest.raises(ValueError):
            Message("writeback_batch", src=0, dst=1, vpns=(1, 2),
                    payloads=(b"x",))
        with pytest.raises(ValueError):
            Message("writeback_batch", src=0, dst=1, payloads=(b"x",))

    def test_wire_cost_shares_one_header_across_the_batch(self):
        net = Interconnect(Stats())
        single = Message("writeback", src=0, dst=1, vpn=1, payload=b"x")
        batch3 = Message(
            "writeback_batch", src=0, dst=1, vpns=(1, 2, 3),
            payloads=(b"x", b"y", b"z"),
        )
        one_page = net._wire_cost(single)
        assert one_page == PAGE_LATENCY_CYCLES
        # 3 pages: one header + 3 data times, cheaper than 3 messages.
        assert net._wire_cost(batch3) == (
            LATENCY_CYCLES + 3 * (PAGE_LATENCY_CYCLES - LATENCY_CYCLES)
        )
        assert net._wire_cost(batch3) < 3 * one_page

    def test_invalidate_range_is_header_cost_only(self):
        net = Interconnect(Stats())
        ranged = Message("invalidate_range", src=0, dst=1, vpns=(1, 2, 3, 4))
        assert net._wire_cost(ranged) == LATENCY_CYCLES

    def test_send_counts_batched_pages(self):
        stats = Stats()
        net = Interconnect(stats)
        net.register(1, lambda msg: Message(
            "invalidate_range_ack", src=1, dst=0, vpns=msg.vpns
        ))
        net.send(Message("invalidate_range", src=0, dst=1, vpns=(1, 2, 3)))
        # Counted once per batched request, not again for the ack.
        assert stats["cluster.msg.batched_pages"] == 3


@pytest.mark.parametrize("model", MODELS)
class TestFlushBatching:
    def test_one_writeback_batch_per_owner_per_tick(self, model):
        cluster = ClusterDSM(model, nodes=3, pages=6, seed=2)
        # Node 1 (not the coordinator) takes four pages exclusive.
        for vpn in cluster.vpns[:4]:
            touch(cluster, 1, vpn, AccessType.WRITE)
            cluster.nodes[1].write_page(vpn, stamp_page(
                cluster.params.page_size, vpn
            ))
        before = cluster.stats.snapshot()
        flushed = cluster.tick()
        delta = cluster.stats.delta(before)
        assert set(flushed) >= set(cluster.vpns[:4])
        # Four exclusive pages, ONE writeback message (the batch).
        assert delta["cluster.msg.writeback_batch"] == 1
        assert delta["cluster.msg.writeback_batch_ack"] == 1
        assert delta.as_dict().get("cluster.msg.writeback", 0) == 0

    def test_batched_flush_lands_every_image_in_the_home_store(self, model):
        cluster = ClusterDSM(model, nodes=3, pages=6, seed=2)
        psize = cluster.params.page_size
        for vpn in cluster.vpns[:3]:
            touch(cluster, 1, vpn, AccessType.WRITE)
            cluster.nodes[1].write_page(vpn, stamp_page(psize, vpn + 7))
        cluster.tick()
        for vpn in cluster.vpns[:3]:
            assert cluster.home[vpn] == stamp_page(psize, vpn + 7)
            assert cluster.directory[vpn].lease_until > 0

    def test_single_page_flush_keeps_the_plain_writeback(self, model):
        cluster = ClusterDSM(model, nodes=3, pages=4, seed=2)
        touch(cluster, 1, cluster.vpns[0], AccessType.WRITE)
        before = cluster.stats.snapshot()
        cluster.tick()
        delta = cluster.stats.delta(before)
        assert delta["cluster.msg.writeback"] > 0
        assert delta.as_dict().get("cluster.msg.writeback_batch", 0) == 0


@pytest.mark.parametrize("model", MODELS)
class TestInvalidateCoalescing:
    def test_range_acquire_sends_one_invalidate_per_holder(self, model):
        cluster = ClusterDSM(model, nodes=3, pages=6, seed=2)
        # Nodes 1 and 2 each hold shared copies of four pages.
        for vpn in cluster.vpns[:4]:
            for nid in (1, 2):
                touch(cluster, nid, vpn)
        before = cluster.stats.snapshot()
        writer = cluster.nodes[1]
        cluster.get_writable_range(writer, cluster.vpns[:4])
        delta = cluster.stats.delta(before)
        # Holders 0 and 2 each give up 4 pages: 2 range messages, zero
        # per-page invalidates.
        assert delta["cluster.msg.invalidate_range"] == 2
        assert delta.as_dict().get("cluster.msg.invalidate", 0) == 0
        for vpn in cluster.vpns[:4]:
            entry = cluster.directory[vpn]
            assert entry.owner == 1
            assert cluster._valid[vpn] == {1}
            assert writer.local_rights(vpn) == Rights.RW

    def test_range_acquire_matches_per_page_end_state(self, model):
        vpn_count = 4
        ranged = ClusterDSM(model, nodes=3, pages=6, seed=2)
        looped = ClusterDSM(model, nodes=3, pages=6, seed=2)
        for cluster in (ranged, looped):
            for vpn in cluster.vpns[:vpn_count]:
                for nid in (1, 2):
                    touch(cluster, nid, vpn)
        ranged.get_writable_range(ranged.nodes[1], ranged.vpns[:vpn_count])
        for vpn in looped.vpns[:vpn_count]:
            looped.get_writable(looped.nodes[1], vpn)
        for vpn in ranged.vpns[:vpn_count]:
            left, right = ranged.directory[vpn], looped.directory[vpn]
            assert (left.owner, left.copyset, left.state) == (
                right.owner, right.copyset, right.state
            )
            assert ranged._valid[vpn] == looped._valid[vpn]
        # ...for strictly fewer messages and interconnect cycles.
        assert (
            ranged.stats["cluster.msg.sent"]
            < looped.stats["cluster.msg.sent"]
        )
        assert ranged.net.clock < looped.net.clock

    def test_single_page_acquire_keeps_the_plain_invalidate(self, model):
        cluster = ClusterDSM(model, nodes=3, pages=4, seed=2)
        touch(cluster, 1, cluster.vpns[0])
        before = cluster.stats.snapshot()
        touch(cluster, 2, cluster.vpns[0], AccessType.WRITE)
        delta = cluster.stats.delta(before)
        assert delta["cluster.msg.invalidate"] > 0
        assert delta.as_dict().get("cluster.msg.invalidate_range", 0) == 0
