"""Tests for the message vocabulary and the fault-injectable wire."""

from __future__ import annotations

import pytest

from repro.cluster.interconnect import (
    LATENCY_CYCLES,
    PAGE_LATENCY_CYCLES,
    TIMEOUT_CYCLES,
    Interconnect,
)
from repro.cluster.messages import MESSAGE_KINDS, Message
from repro.sim.stats import Stats


class TestMessage:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            Message("gossip", src=0, dst=1)

    def test_rejects_self_send(self):
        with pytest.raises(ValueError):
            Message("heartbeat", src=2, dst=2)

    def test_relay_requires_inner(self):
        with pytest.raises(ValueError):
            Message("relay", src=0, dst=1)

    def test_hop_rewrites_source_only(self):
        msg = Message("fetch", src=0, dst=2, vpn=7)
        hopped = msg.hop(via=1)
        assert (hopped.src, hopped.dst, hopped.vpn) == (1, 2, 7)

    def test_every_kind_constructs(self):
        for kind in MESSAGE_KINDS:
            inner = Message("probe", src=0, dst=1) if kind == "relay" else None
            Message(kind, src=0, dst=1, inner=inner)


@pytest.fixture
def net():
    return Interconnect(Stats())


def echo_handler(replies):
    def handle(message):
        return replies(message) if callable(replies) else replies

    return handle


def ack(message):
    return Message("heartbeat_ack", src=message.dst, dst=message.src)


class TestInterconnect:
    def test_reply_round_trip_charges_both_directions(self, net):
        net.register(1, ack)
        reply = net.send(Message("heartbeat", src=0, dst=1))
        assert reply.kind == "heartbeat_ack"
        assert net.stats["cluster.msg.sent"] == 2  # request + reply
        assert net.clock == 2 * LATENCY_CYCLES

    def test_crashed_destination_times_out(self, net):
        net.register(1, ack)
        net.crash(1)
        assert net.send(Message("heartbeat", src=0, dst=1)) is None
        assert net.stats["cluster.msg.undeliverable"] == 1
        assert net.clock == LATENCY_CYCLES + TIMEOUT_CYCLES

    def test_cut_link_times_out_but_other_links_work(self, net):
        net.register(1, ack)
        net.register(2, ack)
        net.cut(0, 1)
        assert net.send(Message("heartbeat", src=0, dst=1)) is None
        assert net.send(Message("heartbeat", src=0, dst=2)) is not None
        net.heal_all()
        assert net.send(Message("heartbeat", src=0, dst=1)) is not None

    def test_page_payload_costs_more_wire_time(self, net):
        net.register(1, ack)
        net.send(Message("heartbeat", src=0, dst=1))
        control = net.clock
        net.clock = 0
        net.send(
            Message("writeback", src=0, dst=1, vpn=1, payload=b"\x01" * 64)
        )
        assert net.clock > control

    def test_hook_drop_verdict_loses_the_message(self, net):
        seen = []
        net.register(1, ack)
        net.hook = lambda message, index: seen.append(index) or "drop"
        assert net.send(Message("heartbeat", src=0, dst=1)) is None
        assert seen == [0]
        assert net.stats["cluster.msg.dropped"] == 1
        assert net.clock == LATENCY_CYCLES + TIMEOUT_CYCLES

    def test_hook_delay_verdict_adds_two_header_latencies(self, net):
        net.register(1, ack)
        net.hook = lambda message, index: "delay"
        assert net.send(Message("heartbeat", src=0, dst=1)) is not None
        assert net.stats["cluster.msg.delayed"] == 1
        # Request, the delay, then the reply.
        assert net.clock == LATENCY_CYCLES + 2 * LATENCY_CYCLES + LATENCY_CYCLES

    def test_hook_dup_verdict_delivers_twice(self, net):
        calls = []
        net.register(1, lambda m: calls.append(m) or ack(m))
        net.hook = lambda message, index: "dup"
        net.send(Message("heartbeat", src=0, dst=1))
        assert len(calls) == 2
        assert net.stats["cluster.msg.duplicated"] == 1

    def test_hook_runs_before_deliverability_check(self, net):
        """A node_crash fired by the hook strands the triggering message."""
        net.register(1, ack)

        def crash_on_first(message, index):
            net.crash(message.dst)
            return None

        net.hook = crash_on_first
        assert net.send(Message("heartbeat", src=0, dst=1)) is None
        assert net.stats["cluster.msg.undeliverable"] == 1

    def test_none_reply_counts_unanswered_timeout(self, net):
        net.register(1, lambda m: None)
        assert net.send(Message("heartbeat", src=0, dst=1)) is None
        assert net.stats["cluster.msg.unanswered"] == 1
        assert net.clock == LATENCY_CYCLES + TIMEOUT_CYCLES

    def test_a_page_reply_costs_the_page_latency(self, net):
        net.register(
            1,
            lambda m: Message(
                "fetch_reply", src=m.dst, dst=m.src, vpn=m.vpn, payload=b"\x01" * 64
            ),
        )
        reply = net.send(Message("fetch", src=0, dst=1, vpn=3))
        assert reply.payload == b"\x01" * 64
        assert net.clock == LATENCY_CYCLES + PAGE_LATENCY_CYCLES

    def test_message_index_is_a_global_stream(self, net):
        net.register(1, ack)
        indices = []
        net.hook = lambda message, index: indices.append(index) or None
        for _ in range(3):
            net.send(Message("heartbeat", src=0, dst=1))
        assert indices == [0, 1, 2]
