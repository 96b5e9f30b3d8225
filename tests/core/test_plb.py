"""Unit and property tests for the Protection Lookaside Buffer."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.params import MachineParams
from repro.core.plb import ProtectionLookasideBuffer
from repro.core.rights import Rights

PAGE = 4096


def vaddr(vpn: int, offset: int = 0) -> int:
    return (vpn << 12) | offset


class TestBasicOperation:
    def test_miss_then_fill_then_hit(self):
        plb = ProtectionLookasideBuffer(8)
        assert plb.lookup(1, vaddr(5)) is None
        plb.fill(1, vaddr(5), Rights.RW)
        assert plb.lookup(1, vaddr(5)) == Rights.RW
        assert plb.stats["plb.miss"] == 1
        assert plb.stats["plb.hit"] == 1

    def test_entries_are_per_domain(self):
        """Two domains sharing a page need two PLB entries (§3.2.1)."""
        plb = ProtectionLookasideBuffer(8)
        plb.fill(1, vaddr(5), Rights.RW)
        plb.fill(2, vaddr(5), Rights.READ)
        assert plb.lookup(1, vaddr(5)) == Rights.RW
        assert plb.lookup(2, vaddr(5)) == Rights.READ
        assert plb.entries_for_page(5) == 2

    def test_same_page_different_offsets_one_entry(self):
        plb = ProtectionLookasideBuffer(8)
        plb.fill(1, vaddr(5, 100), Rights.READ)
        assert plb.lookup(1, vaddr(5, 3000)) == Rights.READ
        assert len(plb) == 1

    def test_rejects_empty_levels(self):
        with pytest.raises(ValueError):
            ProtectionLookasideBuffer(8, levels=())

    def test_rejects_subbyte_level(self):
        with pytest.raises(ValueError):
            ProtectionLookasideBuffer(8, levels=(-13,))

    def test_fill_at_unconfigured_level(self):
        plb = ProtectionLookasideBuffer(8)
        with pytest.raises(ValueError):
            plb.fill(1, vaddr(0), Rights.READ, level=2)


class TestUpdateRights:
    def test_update_resident_entry_in_place(self):
        plb = ProtectionLookasideBuffer(8)
        plb.fill(1, vaddr(5), Rights.READ)
        assert plb.update_rights(1, vaddr(5), Rights.RW)
        assert plb.lookup(1, vaddr(5)) == Rights.RW
        assert plb.stats["plb.update"] == 1

    def test_update_missing_entry_is_noop(self):
        plb = ProtectionLookasideBuffer(8)
        assert not plb.update_rights(1, vaddr(5), Rights.RW)

    def test_update_does_not_affect_other_domains(self):
        plb = ProtectionLookasideBuffer(8)
        plb.fill(1, vaddr(5), Rights.READ)
        plb.fill(2, vaddr(5), Rights.READ)
        plb.update_rights(1, vaddr(5), Rights.NONE)
        assert plb.lookup(2, vaddr(5)) == Rights.READ

    def test_update_entries_for_page_all_domains(self):
        plb = ProtectionLookasideBuffer(8)
        for pd in (1, 2, 3):
            plb.fill(pd, vaddr(5), Rights.RW)
        plb.fill(1, vaddr(6), Rights.RW)
        inspected, changed = plb.update_entries_for_page(5, Rights.NONE)
        assert inspected == 4
        assert changed == 3
        for pd in (1, 2, 3):
            assert plb.resident(pd, vaddr(5)) == Rights.NONE
        assert plb.resident(1, vaddr(6)) == Rights.RW

    def test_update_entries_for_page_single_domain(self):
        plb = ProtectionLookasideBuffer(8)
        plb.fill(1, vaddr(5), Rights.RW)
        plb.fill(2, vaddr(5), Rights.RW)
        _, changed = plb.update_entries_for_page(5, Rights.NONE, pd_id=1)
        assert changed == 1
        assert plb.resident(2, vaddr(5)) == Rights.RW


class TestPurges:
    def test_purge_domain_range_is_a_sweep(self):
        """Detach inspects every entry (Table 1's detach cost)."""
        plb = ProtectionLookasideBuffer(16)
        for vpn in range(4):
            plb.fill(1, vaddr(vpn), Rights.RW)
            plb.fill(2, vaddr(vpn), Rights.RW)
        inspected, removed = plb.purge_domain_range(1, 0, 2)
        assert inspected == 8  # every resident entry inspected
        assert removed == 2  # only domain 1's pages 0..1
        assert plb.resident(1, vaddr(0)) is None
        assert plb.resident(2, vaddr(0)) == Rights.RW
        assert plb.resident(1, vaddr(2)) == Rights.RW

    def test_purge_page_removes_all_domains(self):
        plb = ProtectionLookasideBuffer(8)
        plb.fill(1, vaddr(5), Rights.RW)
        plb.fill(2, vaddr(5), Rights.READ)
        _, removed = plb.purge_page(5)
        assert removed == 2
        assert plb.entries_for_page(5) == 0

    def test_purge_all(self):
        plb = ProtectionLookasideBuffer(8)
        for vpn in range(5):
            plb.fill(1, vaddr(vpn), Rights.RW)
        assert plb.purge_all() == 5
        assert len(plb) == 0

    def test_sweep_domain_range_rewrites(self):
        plb = ProtectionLookasideBuffer(8)
        for vpn in range(4):
            plb.fill(1, vaddr(vpn), Rights.RW)
        inspected, changed = plb.sweep_domain_range(1, 1, 3, Rights.READ)
        assert inspected == 4
        assert changed == 2
        assert plb.resident(1, vaddr(0)) == Rights.RW
        assert plb.resident(1, vaddr(1)) == Rights.READ
        assert plb.resident(1, vaddr(2)) == Rights.READ
        assert plb.resident(1, vaddr(3)) == Rights.RW


class TestReplacement:
    def test_lru_eviction(self):
        plb = ProtectionLookasideBuffer(2)
        plb.fill(1, vaddr(0), Rights.READ)
        plb.fill(1, vaddr(1), Rights.READ)
        plb.lookup(1, vaddr(0))  # promote page 0
        plb.fill(1, vaddr(2), Rights.READ)
        assert plb.resident(1, vaddr(1)) is None
        assert plb.resident(1, vaddr(0)) == Rights.READ

    def test_capacity(self):
        plb = ProtectionLookasideBuffer(4)
        for vpn in range(10):
            plb.fill(1, vaddr(vpn), Rights.READ)
        assert len(plb) == 4
        assert plb.occupancy == 1.0

    @pytest.mark.parametrize("entries,ways", [(64, 64), (128, 128), (128, 4)])
    def test_filled_pages_never_miss(self, entries, ways):
        """A PLB filled with as many consecutive pages as it has entries
        holds them all, set-associative too: probing them never misses."""
        plb = ProtectionLookasideBuffer(entries, ways)
        for vpn in range(entries):
            plb.fill(1, vaddr(vpn), Rights.RW)
        for vpn in range(1024):
            assert plb.lookup(1, vaddr(vpn % entries)) == Rights.RW
        assert plb.stats["plb.miss"] == 0


class TestSuperpageProtection:
    """Section 4.3: protection units larger than a translation page."""

    def test_one_entry_covers_aligned_superpage(self):
        plb = ProtectionLookasideBuffer(8, levels=(2, 0))
        plb.fill(1, vaddr(4), Rights.RW, level=2)  # pages 4..7
        for vpn in range(4, 8):
            assert plb.lookup(1, vaddr(vpn)) == Rights.RW
        assert len(plb) == 1
        assert plb.lookup(1, vaddr(8)) is None

    def test_superpage_alignment(self):
        plb = ProtectionLookasideBuffer(8, levels=(2, 0))
        plb.fill(1, vaddr(5), Rights.RW, level=2)  # unit = pages 4..7
        assert plb.lookup(1, vaddr(4)) == Rights.RW

    def test_purge_range_overlapping_superpage(self):
        plb = ProtectionLookasideBuffer(8, levels=(2, 0))
        plb.fill(1, vaddr(4), Rights.RW, level=2)
        _, removed = plb.purge_domain_range(1, 6, 7)  # overlaps the unit
        assert removed == 1
        assert plb.lookup(1, vaddr(4)) is None

    def test_page_entry_preferred_when_both_resident(self):
        """Lookup probes coarser levels first, then finer (config order)."""
        plb = ProtectionLookasideBuffer(8, levels=(2, 0))
        plb.fill(1, vaddr(4), Rights.READ, level=2)
        plb.fill(1, vaddr(5), Rights.RW, level=0)
        # The superpage entry answers first (levels probed descending).
        assert plb.lookup(1, vaddr(5)) == Rights.READ

    def test_unit_span(self):
        plb = ProtectionLookasideBuffer(8, levels=(3, 0, -5))
        assert plb.unit_span_pages(3) == 8
        assert plb.unit_span_pages(0) == 1
        assert plb.unit_span_pages(-5) == 1


class TestSubpageProtection:
    """Section 4.3: protection units smaller than a page (801 locks)."""

    def test_subpage_units_are_independent(self):
        # -5 => 4096/32 = 128-byte units, the IBM 801 lock granularity.
        plb = ProtectionLookasideBuffer(16, levels=(-5,))
        plb.fill(1, vaddr(0, 0), Rights.RW, level=-5)
        assert plb.lookup(1, vaddr(0, 64)) == Rights.RW  # same 128B unit
        assert plb.lookup(1, vaddr(0, 128)) is None  # next unit

    def test_subpage_purge_page_sweeps_all_units(self):
        plb = ProtectionLookasideBuffer(64, levels=(-5,))
        for unit in range(4):
            plb.fill(1, vaddr(0, unit * 128), Rights.RW, level=-5)
        plb.fill(1, vaddr(1, 0), Rights.RW, level=-5)
        _, removed = plb.purge_page(0)
        assert removed == 4
        assert plb.lookup(1, vaddr(1, 0)) == Rights.RW


class TestPLBProperties:
    @settings(max_examples=50)
    @given(
        fills=st.lists(
            st.tuples(st.integers(1, 3), st.integers(0, 15),
                      st.sampled_from([Rights.READ, Rights.RW, Rights.NONE])),
            min_size=1, max_size=60,
        )
    )
    def test_resident_rights_always_match_last_fill(self, fills):
        plb = ProtectionLookasideBuffer(64)
        latest: dict[tuple[int, int], Rights] = {}
        for pd, vpn, rights in fills:
            plb.fill(pd, vaddr(vpn), rights)
            latest[(pd, vpn)] = rights
        for (pd, vpn), rights in latest.items():
            assert plb.resident(pd, vaddr(vpn)) == rights

    @settings(max_examples=50)
    @given(
        fills=st.lists(
            st.tuples(st.integers(1, 4), st.integers(0, 20)),
            min_size=1, max_size=80,
        ),
        capacity=st.sampled_from([2, 4, 8]),
    )
    def test_capacity_respected(self, fills, capacity):
        plb = ProtectionLookasideBuffer(capacity)
        for pd, vpn in fills:
            plb.fill(pd, vaddr(vpn), Rights.READ)
        assert len(plb) <= capacity

    @settings(max_examples=50)
    @given(
        pds=st.lists(st.integers(1, 5), min_size=1, max_size=5, unique=True),
        vpn=st.integers(0, 100),
    )
    def test_replication_count_equals_sharing_domains(self, pds, vpn):
        """PLB replication grows with sharing (§3.2.1 / Table 1)."""
        plb = ProtectionLookasideBuffer(32)
        for pd in pds:
            plb.fill(pd, vaddr(vpn), Rights.READ)
        assert plb.entries_for_page(vpn) == len(pds)


class TestPageUpdateWithMixedLevels:
    def test_superpage_entry_purged_not_rewritten(self):
        """A per-page rights change cannot speak for a whole superpage
        entry: the covering entry must go, not be rewritten."""
        plb = ProtectionLookasideBuffer(8, levels=(2, 0))
        plb.fill(1, vaddr(4), Rights.RW, level=2)  # covers pages 4..7
        _, changed = plb.update_entries_for_page(5, Rights.NONE)
        assert changed == 1
        # The superpage entry is gone entirely...
        assert plb.resident(1, vaddr(4)) is None
        assert plb.resident(1, vaddr(6)) is None

    def test_page_level_entries_still_rewritten(self):
        plb = ProtectionLookasideBuffer(8, levels=(2, 0))
        plb.fill(1, vaddr(5), Rights.RW, level=0)
        _, changed = plb.update_entries_for_page(5, Rights.NONE)
        assert changed == 1
        assert plb.resident(1, vaddr(5)) == Rights.NONE


RIGHTS = st.sampled_from([Rights.NONE, Rights.READ, Rights.RW, Rights.RWX])


class TestRangeUpdates:
    """A K-page update must equal a per-page loop over the batch's
    distinct pages, on twin PLBs filled identically, at every mix of
    page, superpage and sub-page units."""

    @pytest.mark.parametrize(
        "levels", [(0,), (0, 2), (-2, 0), (0, 1, 3)],
        ids=lambda levels: ",".join(map(str, levels)),
    )
    @settings(max_examples=100)
    @given(
        geometry=st.sampled_from([(16, 16), (16, 4)]),
        fills=st.lists(
            st.tuples(
                st.integers(1, 3),  # domain
                st.integers(0, 15),  # page
                st.integers(0, 3),  # quarter of the page (sub-page units)
                st.integers(0, 2),  # which configured level
                RIGHTS,
            ),
            max_size=40,
        ),
        vpns=st.lists(st.integers(0, 17), min_size=1, max_size=12),
        rights=RIGHTS,
        pd_id=st.one_of(st.none(), st.integers(1, 3)),
    )
    # With a coarser level configured, the fill is a unit above page 5
    # that overlaps the batch's second page only: a range update that
    # checks one page per batch keeps it.
    @example(
        geometry=(16, 16), fills=[(1, 5, 0, 0, Rights.RW)],
        vpns=[1, 5], rights=Rights.READ, pd_id=None,
    )
    def test_update_entries_for_pages_matches_per_page(
        self, levels, geometry, fills, vpns, rights, pd_id
    ):
        batched = ProtectionLookasideBuffer(*geometry, levels=levels)
        looped = ProtectionLookasideBuffer(*geometry, levels=levels)
        for plb in (batched, looped):
            for pd, vpn, quarter, pick, fill_rights in fills:
                level = plb.levels[pick % len(plb.levels)]
                plb.fill(pd, vaddr(vpn, quarter * PAGE // 4), fill_rights, level=level)
        before = [key for key, _ in batched.items()]
        _, changed = batched.update_entries_for_pages(vpns, rights, pd_id)
        expected = sum(
            looped.update_entries_for_page(vpn, rights, pd_id)[1] for vpn in set(vpns)
        )
        assert changed == expected
        after = list(batched.items())
        assert after == list(looped.items())
        assert (
            batched.stats["plb.sweep_updated"]
            == looped.stats["plb.sweep_updated"]
            == expected
        )
        survivors = {key for key, _ in after}
        assert [key for key, _ in after] == [key for key in before if key in survivors]

    def test_a_superpage_over_a_later_batch_page_is_removed(self):
        plb = ProtectionLookasideBuffer(8, levels=(2, 0))
        plb.fill(1, vaddr(4), Rights.RW, level=2)  # covers pages 4..7
        _, changed = plb.update_entries_for_pages([1, 5], Rights.READ)
        assert changed == 1
        assert plb.resident(1, vaddr(6)) is None

    def test_a_sub_page_entry_of_a_later_batch_page_is_removed(self):
        plb = ProtectionLookasideBuffer(8, levels=(0, -2))
        plb.fill(1, vaddr(5, PAGE // 2), Rights.RW, level=-2)
        plb.fill(1, vaddr(9), Rights.RW)
        _, changed = plb.update_entries_for_pages([1, 5], Rights.READ)
        assert changed == 1
        assert plb.resident(1, vaddr(5, PAGE // 2)) is None
        assert plb.resident(1, vaddr(9)) == Rights.RW

    def test_a_repeated_page_is_updated_once(self):
        plb = ProtectionLookasideBuffer(8)
        plb.fill(1, vaddr(3), Rights.RW)
        plb.fill(2, vaddr(3), Rights.RW)
        _, changed = plb.update_entries_for_pages([3, 3, 3], Rights.READ)
        assert changed == 2
        assert plb.stats["plb.sweep_updated"] == 2
        assert plb.resident(1, vaddr(3)) == plb.resident(2, vaddr(3)) == Rights.READ

    def test_a_domain_filter_leaves_other_domains_entries(self):
        plb = ProtectionLookasideBuffer(8, levels=(2, 0))
        plb.fill(1, vaddr(3), Rights.RW)
        plb.fill(2, vaddr(3), Rights.RW)
        plb.fill(2, vaddr(4), Rights.RW, level=2)
        _, changed = plb.update_entries_for_pages([3, 5], Rights.NONE, pd_id=1)
        assert changed == 1
        assert plb.resident(1, vaddr(3)) == Rights.NONE
        assert plb.resident(2, vaddr(3)) == Rights.RW
        assert plb.resident(2, vaddr(5)) == Rights.RW


class TestDomainEntryCount:
    def test_entries_for_domain(self):
        plb = ProtectionLookasideBuffer(16)
        for vpn in range(3):
            plb.fill(1, vaddr(vpn), Rights.READ)
        plb.fill(2, vaddr(0), Rights.READ)
        assert plb.entries_for_domain(1) == 3
        assert plb.entries_for_domain(2) == 1
        assert plb.entries_for_domain(3) == 0


class TestMultiLevelSweep:
    """Regression: invalidate/update_rights must visit EVERY level.

    A domain can legitimately hold a page-level and a superpage-level
    entry covering the same address; stopping at the first level that
    hits leaves the sibling granting stale (possibly revoked) rights.
    """

    def make_both_levels(self) -> ProtectionLookasideBuffer:
        plb = ProtectionLookasideBuffer(8, levels=(2, 0))
        plb.fill(1, vaddr(4), Rights.RW, level=2)  # covers pages 4..7
        plb.fill(1, vaddr(4), Rights.RW, level=0)
        return plb

    def test_invalidate_sweeps_all_levels(self):
        plb = self.make_both_levels()
        assert plb.invalidate(1, vaddr(4)) == 2
        assert plb.resident(1, vaddr(4)) is None
        assert plb.stats["plb.invalidate"] == 2

    def test_update_rights_sweeps_all_levels(self):
        plb = self.make_both_levels()
        assert plb.update_rights(1, vaddr(4), Rights.READ) == 2
        rights = [entry.rights for key, entry in plb.items() if key.pd_id == 1]
        assert rights == [Rights.READ, Rights.READ]

    def test_counts_zero_when_nothing_resident(self):
        plb = ProtectionLookasideBuffer(8, levels=(2, 0))
        assert plb.invalidate(1, vaddr(4)) == 0
        assert plb.update_rights(1, vaddr(4), Rights.READ) == 0

    def test_single_level_unaffected(self):
        plb = ProtectionLookasideBuffer(8, levels=(2, 0))
        plb.fill(1, vaddr(4), Rights.RW, level=2)
        assert plb.invalidate(1, vaddr(4)) == 1
        assert plb.resident(1, vaddr(4)) is None
