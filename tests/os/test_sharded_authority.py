"""The sharded kernel: VPN-range home shards behind one API.

Unit coverage for ``Kernel(n_shards=K)``'s shard map (chunk interleave,
the one segment index, per-shard mutation accounting, K=1 charging
nothing) plus a differential sweep: the ``repro.check`` lockstep
harness replays 20 scenario-seeds through all three models at
K ∈ {1, 2, 4} shards — a sharded kernel must stay op-for-op identical
to the gold model, because sharding partitions *accounting*, never
protection state.
"""

from __future__ import annotations

import pytest

from repro.check import run_check
from repro.core.rights import Rights
from repro.os.kernel import MODELS, SHARD_SPAN_BITS, Kernel


def make_kernel(n_shards: int) -> Kernel:
    return Kernel("plb", n_frames=256, n_shards=n_shards)


# ---------------------------------------------------------------------- #
# Shard map


def test_rejects_non_positive_shard_count():
    with pytest.raises(ValueError):
        make_kernel(0)


def test_chunk_interleave_spreads_adjacent_chunks():
    kernel = make_kernel(4)
    span = 1 << SHARD_SPAN_BITS
    # Consecutive chunks land on consecutive shards, wrapping at K.
    homes = [kernel.shard_of(chunk * span) for chunk in range(8)]
    assert homes == [0, 1, 2, 3, 0, 1, 2, 3]
    # Pages inside one chunk share a home: range verbs on a small
    # segment stay single-shard.
    assert {kernel.shard_of(vpn) for vpn in range(span)} == {0}


def test_shards_for_collects_home_set():
    """A verb whose pages share one home chunk is charged as local; one
    whose pages span four chunks, as cross-shard."""
    kernel = make_kernel(4)
    span = 1 << SHARD_SPAN_BITS
    dom = kernel.create_domain("d")
    seg = kernel.create_segment("s", span * 4)
    kernel.attach(dom, seg, Rights.RW)
    one_chunk = range(seg.base_vpn, seg.base_vpn + span)
    four_chunks = range(seg.base_vpn, seg.end_vpn)
    assert {kernel.shard_of(vpn) for vpn in four_chunks} == {0, 1, 2, 3}
    for vpns, local, cross in ((one_chunk, 1, 0), (four_chunks, 0, 1)):
        before = kernel.stats.snapshot()
        kernel.set_pages_rights(dom, vpns, Rights.READ)
        delta = kernel.stats.delta(before)
        assert delta["authority.shard.local"] == local
        assert delta["authority.shard.cross"] == cross


def test_monolithic_authority_maps_everything_to_shard_zero():
    kernel = make_kernel(1)
    assert {kernel.shard_of(vpn) for vpn in (0, 999, 4095, 12345)} == {0}


# ---------------------------------------------------------------------- #
# Segment index


@pytest.mark.parametrize("model", MODELS)
def test_segment_at_agrees_with_monolithic(model):
    """A sharded kernel's segment index answers exactly like a
    monolithic one's."""
    mono = Kernel(model, n_frames=256, n_shards=1)
    shard = Kernel(model, n_frames=256, n_shards=4)
    for kernel in (mono, shard):
        dom = kernel.create_domain("d")
        for i in range(4):
            seg = kernel.create_segment(f"s{i}", 8)
            kernel.attach(dom, seg, Rights.RW)
    probe_vpns = range(0, 64)
    for vpn in probe_vpns:
        a = mono.segment_at(vpn)
        b = shard.segment_at(vpn)
        assert (a is None) == (b is None), vpn
        if a is not None:
            assert (a.base_vpn, a.n_pages) == (b.base_vpn, b.n_pages)


def test_spanning_segment_found_from_every_overlapped_shard():
    kernel = Kernel("plb", n_frames=256, n_shards=4)
    dom = kernel.create_domain("d")
    # 64 pages = 8 chunks: overlaps every shard's range twice.
    seg = kernel.create_segment("big", 64)
    kernel.attach(dom, seg, Rights.RW)
    for vpn in (seg.base_vpn, seg.base_vpn + 20, seg.end_vpn - 1):
        found = kernel.segment_at(vpn)
        assert found is not None and found.base_vpn == seg.base_vpn
    kernel.destroy_segment(seg)
    assert kernel.segment_at(seg.base_vpn) is None


# ---------------------------------------------------------------------- #
# Mutation accounting


def test_single_shard_run_charges_no_shard_counters():
    kernel = Kernel("plb", n_frames=128, n_shards=1)
    dom = kernel.create_domain("d")
    seg = kernel.create_segment("s", 8)
    kernel.attach(dom, seg, Rights.RW)
    kernel.set_page_rights(dom, seg.base_vpn, Rights.READ)
    counters = kernel.stats.as_dict()
    assert not any(k.startswith("authority.shard.") for k in counters)


def test_disjoint_mutations_are_charged_shard_local():
    """Verbs on disjoint segments each touch one home shard of their
    own and are charged as shard-local; one verb spanning them all is
    charged once, as cross-shard."""
    kernel = Kernel("plb", n_frames=256, n_shards=4)
    dom = kernel.create_domain("d")
    segs = [kernel.create_segment(f"s{i}", 8) for i in range(4)]
    for seg in segs:
        kernel.attach(dom, seg, Rights.RW)
    homes = [kernel.shard_of(seg.base_vpn) for seg in segs]
    assert sorted(homes) == [0, 1, 2, 3]
    for seg, home in zip(segs, homes):
        assert {kernel.shard_of(vpn) for vpn in seg.vpns()} == {home}
    before = kernel.stats.snapshot()
    for seg in segs:
        kernel.set_page_rights(dom, seg.base_vpn, Rights.READ)
    delta = kernel.stats.delta(before)
    assert delta["authority.shard.mutations"] == 4
    assert delta["authority.shard.local"] == 4
    assert delta["authority.shard.cross"] == 0
    firsts = [seg.base_vpn for seg in segs]
    assert {kernel.shard_of(vpn) for vpn in firsts} == {0, 1, 2, 3}
    before = kernel.stats.snapshot()
    kernel.set_pages_rights(dom, firsts, Rights.RW)
    delta = kernel.stats.delta(before)
    assert delta["authority.shard.mutations"] == 1
    assert delta["authority.shard.local"] == 0
    assert delta["authority.shard.cross"] == 1


def test_single_shard_mutation_charged_as_local():
    kernel = Kernel("plb", n_frames=256, n_shards=4)
    dom = kernel.create_domain("d")
    seg = kernel.create_segment("s", 8)
    kernel.attach(dom, seg, Rights.RW)
    stats = kernel.stats.as_dict()
    local, cross = (
        stats.get("authority.shard.local", 0),
        stats.get("authority.shard.cross", 0),
    )
    kernel.set_page_rights(dom, seg.base_vpn, Rights.READ)
    stats = kernel.stats.as_dict()
    assert stats.get("authority.shard.local", 0) == local + 1
    assert stats.get("authority.shard.cross", 0) == cross


def test_spanning_mutation_charged_as_cross():
    kernel = Kernel("plb", n_frames=256, n_shards=4)
    dom = kernel.create_domain("d")
    seg = kernel.create_segment("big", 32)
    kernel.attach(dom, seg, Rights.RW)
    stats = kernel.stats.as_dict()
    cross = stats.get("authority.shard.cross", 0)
    kernel.set_segment_rights(dom, seg, Rights.READ)
    stats = kernel.stats.as_dict()
    assert stats.get("authority.shard.cross", 0) == cross + 1


# ---------------------------------------------------------------------- #
# Differential sweep: sharded vs monolithic vs gold

#: 20 scenario-seeds spread over every generator the oracle has.
SCENARIO_SEEDS = tuple(
    (scenario, seed)
    for scenario in ("fuzz", "attach", "rights", "paging", "switch")
    for seed in range(4)
)


@pytest.mark.parametrize("n_shards", (1, 2, 4))
@pytest.mark.parametrize("scenario,seed", SCENARIO_SEEDS)
def test_sharded_kernel_matches_gold(scenario, seed, n_shards):
    result = run_check(
        scenario, seed, n_ops=100, minimize=False, n_shards=n_shards
    )
    assert result.ok, (
        f"{scenario} seed={seed} K={n_shards}: "
        f"{result.divergence and result.divergence.describe()}"
    )
