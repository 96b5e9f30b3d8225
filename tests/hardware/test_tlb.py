"""Unit tests for the three TLB organizations."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.rights import Rights
from repro.hardware.tlb import AIDTaggedTLB, ASIDTaggedTLB, TranslationTLB


class TestTranslationTLB:
    def test_fill_and_lookup(self):
        tlb = TranslationTLB(8)
        tlb.fill(5, 42)
        entry = tlb.lookup(5)
        assert entry is not None and entry.pfn == 42
        assert entry.referenced

    def test_one_entry_per_page_no_domain_tag(self):
        """Translation-only entries are domain-independent (§3.2.1)."""
        tlb = TranslationTLB(8)
        tlb.fill(5, 42)
        tlb.fill(5, 42)  # "another domain" fills the same page
        assert len(tlb) == 1

    def test_invalidate_single_translation(self):
        tlb = TranslationTLB(8)
        tlb.fill(5, 42)
        assert tlb.invalidate(5)
        assert tlb.lookup(5) is None
        assert not tlb.invalidate(5)

    def test_dirty_bit(self):
        tlb = TranslationTLB(8)
        entry = tlb.fill(5, 42, dirty=True)
        assert entry.dirty

    def test_purge(self):
        tlb = TranslationTLB(8)
        for vpn in range(4):
            tlb.fill(vpn, vpn)
        assert tlb.purge() == 4
        assert len(tlb) == 0

    def test_contains_and_occupancy(self):
        tlb = TranslationTLB(4)
        tlb.fill(1, 1)
        assert 1 in tlb
        assert tlb.occupancy == 0.25


class TestAIDTaggedTLB:
    def test_entry_carries_rights_and_aid(self):
        tlb = AIDTaggedTLB(8)
        tlb.fill(5, 42, Rights.RW, aid=7)
        entry = tlb.lookup(5)
        assert entry is not None
        assert (entry.pfn, entry.rights, entry.aid) == (42, Rights.RW, 7)

    def test_update_rights_in_place(self):
        """Global rights changes touch a single TLB entry (§4.1.2)."""
        tlb = AIDTaggedTLB(8)
        tlb.fill(5, 42, Rights.RW, aid=7)
        assert tlb.update(5, rights=Rights.READ)
        entry = tlb.lookup(5)
        assert entry is not None and entry.rights == Rights.READ
        assert entry.aid == 7  # unchanged

    def test_update_aid_moves_group(self):
        tlb = AIDTaggedTLB(8)
        tlb.fill(5, 42, Rights.RW, aid=7)
        assert tlb.update(5, aid=9)
        entry = tlb.lookup(5)
        assert entry is not None and entry.aid == 9

    def test_update_missing_is_noop(self):
        tlb = AIDTaggedTLB(8)
        assert not tlb.update(5, rights=Rights.READ)

    def test_one_entry_regardless_of_sharers(self):
        tlb = AIDTaggedTLB(8)
        tlb.fill(5, 42, Rights.RW, aid=7)
        tlb.fill(5, 42, Rights.RW, aid=7)
        assert len(tlb) == 1


class TestASIDTaggedTLB:
    def test_entries_replicated_per_domain(self):
        """Sharing replicates conventional TLB entries (§3.1)."""
        tlb = ASIDTaggedTLB(8)
        tlb.fill(1, 5, 42, Rights.RW)
        tlb.fill(2, 5, 42, Rights.READ)
        assert len(tlb) == 2
        assert tlb.replicas(5) == 2
        a = tlb.lookup(1, 5)
        b = tlb.lookup(2, 5)
        assert a is not None and a.rights == Rights.RW
        assert b is not None and b.rights == Rights.READ

    def test_lookup_respects_asid(self):
        tlb = ASIDTaggedTLB(8)
        tlb.fill(1, 5, 42, Rights.RW)
        assert tlb.lookup(2, 5) is None

    def test_invalidate_page_sweeps_all_domains(self):
        """A mapping change must purge every domain's replica (§3.1)."""
        tlb = ASIDTaggedTLB(8)
        for asid in (1, 2, 3):
            tlb.fill(asid, 5, 42, Rights.RW)
        tlb.fill(1, 6, 43, Rights.RW)
        inspected, removed = tlb.invalidate_page(5)
        assert removed == 3
        assert inspected == 4
        assert tlb.replicas(5) == 0
        assert tlb.lookup(1, 6) is not None

    def test_invalidate_domain(self):
        tlb = ASIDTaggedTLB(8)
        tlb.fill(1, 5, 42, Rights.RW)
        tlb.fill(1, 6, 43, Rights.RW)
        tlb.fill(2, 5, 42, Rights.RW)
        _, removed = tlb.invalidate_domain(1)
        assert removed == 2
        assert tlb.lookup(2, 5) is not None

    def test_invalidate_domain_range(self):
        tlb = ASIDTaggedTLB(8)
        for vpn in range(4):
            tlb.fill(1, vpn, vpn, Rights.RW)
        _, removed = tlb.invalidate_domain_range(1, 1, 3)
        assert removed == 2
        assert tlb.lookup(1, 0) is not None
        assert tlb.lookup(1, 3) is not None

    def test_update_rights(self):
        tlb = ASIDTaggedTLB(8)
        tlb.fill(1, 5, 42, Rights.RW)
        assert tlb.update_rights(1, 5, Rights.NONE)
        entry = tlb.lookup(1, 5)
        assert entry is not None and entry.rights == Rights.NONE

    def test_purge(self):
        tlb = ASIDTaggedTLB(8)
        tlb.fill(1, 5, 42, Rights.RW)
        assert tlb.purge() == 1
        assert len(tlb) == 0


class TestTLBProperties:
    @settings(max_examples=50)
    @given(
        fills=st.lists(
            st.tuples(st.integers(1, 4), st.integers(0, 15)),
            min_size=1, max_size=50,
        )
    )
    def test_replicas_equal_distinct_asids(self, fills):
        tlb = ASIDTaggedTLB(256)
        for asid, vpn in fills:
            tlb.fill(asid, vpn, vpn, Rights.RW)
        for vpn in {vpn for _, vpn in fills}:
            expected = len({asid for asid, fvpn in fills if fvpn == vpn})
            assert tlb.replicas(vpn) == expected

    @settings(max_examples=50)
    @given(vpns=st.lists(st.integers(0, 30), min_size=1, max_size=60))
    def test_translation_tlb_never_replicates(self, vpns):
        tlb = TranslationTLB(256)
        for vpn in vpns:
            tlb.fill(vpn, vpn + 1000)
        assert len(tlb) == len(set(vpns))


#: ``(entries, ways)``: fully associative, set-associative, direct mapped.
GEOMETRIES = st.sampled_from([(16, 16), (16, 4), (16, 2), (8, 1)])
RIGHTS = st.sampled_from([Rights.NONE, Rights.READ, Rights.RW, Rights.RWX])
#: Resident pages are drawn from 0..9; a batch may also name pages that
#: are not resident (10 and 11 never are), and name a page twice.
BATCH = st.lists(st.integers(0, 11), min_size=1, max_size=12)


class TestRangeUpdates:
    """A range update must equal a per-page loop over the batch's
    distinct pages, on twin TLBs filled identically."""

    @settings(max_examples=60)
    @given(
        geometry=GEOMETRIES,
        fills=st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 9), RIGHTS), max_size=40
        ),
        asid=st.integers(0, 2),
        vpns=BATCH,
        rights=RIGHTS,
    )
    def test_asid_update_rights_pages_matches_per_page(
        self, geometry, fills, asid, vpns, rights
    ):
        batched, looped = ASIDTaggedTLB(*geometry), ASIDTaggedTLB(*geometry)
        for tlb in (batched, looped):
            for fill_asid, vpn, fill_rights in fills:
                tlb.fill(fill_asid, vpn, vpn + 100, fill_rights)
        before = [(key, entry.rights) for key, entry in batched.items()]
        changed = batched.update_rights_pages(asid, vpns, rights)
        expected = sum(looped.update_rights(asid, vpn, rights) for vpn in set(vpns))
        assert changed == expected
        after = list(batched.items())
        assert after == list(looped.items())
        assert batched.stats["asidtlb.update"] == looped.stats["asidtlb.update"] == expected
        assert [key for key, _ in after] == [key for key, _ in before]  # LRU order
        for (key, old), (_, entry) in zip(before, after):
            if key[0] != asid:
                assert entry.rights == old  # other domains' replicas untouched

    @settings(max_examples=60)
    @given(
        geometry=GEOMETRIES,
        fills=st.lists(
            st.tuples(st.integers(0, 9), RIGHTS, st.integers(0, 5)), max_size=40
        ),
        vpns=BATCH,
        rights=st.one_of(st.none(), RIGHTS),
        aid=st.one_of(st.none(), st.integers(0, 5)),
    )
    def test_aid_update_pages_matches_per_page(self, geometry, fills, vpns, rights, aid):
        batched, looped = AIDTaggedTLB(*geometry), AIDTaggedTLB(*geometry)
        for tlb in (batched, looped):
            for vpn, fill_rights, fill_aid in fills:
                tlb.fill(vpn, vpn + 100, fill_rights, fill_aid)
        before = [vpn for vpn, _ in batched.items()]
        changed = batched.update_pages(vpns, rights=rights, aid=aid)
        expected = sum(looped.update(vpn, rights=rights, aid=aid) for vpn in set(vpns))
        assert changed == expected
        assert list(batched.items()) == list(looped.items())
        assert batched.stats["pgtlb.update"] == looped.stats["pgtlb.update"] == expected
        assert [vpn for vpn, _ in batched.items()] == before  # LRU order
