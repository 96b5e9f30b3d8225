"""Unit and property tests for the page-group protection model."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.pagegroup import (
    GLOBAL_PAGE_GROUP,
    PageGroupCache,
    PIDEntry,
    PIDRegisterFile,
    check_group_access,
)
from repro.core.rights import AccessType, Rights
from repro.sim.stats import Stats


class TestPageGroupCache:
    def test_miss_then_install_then_hit(self):
        cache = PageGroupCache(4)
        assert cache.find(7) is None
        cache.install(PIDEntry(group=7))
        found = cache.find(7)
        assert found is not None and found.group == 7

    def test_group_zero_always_matches(self):
        """Group 0 is global to all domains (Section 3.2.2)."""
        cache = PageGroupCache(4)
        entry = cache.find(GLOBAL_PAGE_GROUP)
        assert entry is not None
        assert not entry.write_disable

    def test_lru_replacement(self):
        cache = PageGroupCache(2)
        cache.install(PIDEntry(group=1))
        cache.install(PIDEntry(group=2))
        cache.find(1)  # promote
        evicted = cache.install(PIDEntry(group=3))
        assert evicted == 2
        assert 1 in cache and 3 in cache and 2 not in cache

    def test_drop(self):
        cache = PageGroupCache(4)
        cache.install(PIDEntry(group=5))
        assert cache.drop(5)
        assert not cache.drop(5)
        assert 5 not in cache

    def test_invalidate_is_counted_drop_is_not(self):
        """``invalidate`` is the Table 1 detach; ``drop`` is the
        scrubber's uncharged repair path."""
        stats = Stats()
        cache = PageGroupCache(4, stats=stats)
        cache.install(PIDEntry(group=5))
        cache.install(PIDEntry(group=6))
        assert cache.invalidate(5)
        assert cache.drop(6)
        assert len(cache) == 0
        assert stats["pgcache.invalidate"] == 1

    def test_clear_counts_entries(self):
        cache = PageGroupCache(4)
        cache.install(PIDEntry(group=1))
        cache.install(PIDEntry(group=2))
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_write_disable_preserved(self):
        cache = PageGroupCache(4)
        cache.install(PIDEntry(group=9, write_disable=True))
        found = cache.find(9)
        assert found is not None and found.write_disable

    def test_resident_groups(self):
        cache = PageGroupCache(4)
        cache.install(PIDEntry(group=1))
        cache.install(PIDEntry(group=2))
        assert sorted(cache.resident_groups()) == [1, 2]


class TestPIDRegisterFile:
    def test_four_registers_by_default(self):
        file = PIDRegisterFile()
        assert file.size == 4

    def test_install_and_find(self):
        file = PIDRegisterFile()
        file.install(PIDEntry(group=3))
        found = file.find(3)
        assert found is not None and found.group == 3

    def test_group_zero_needs_no_register(self):
        file = PIDRegisterFile()
        assert file.find(GLOBAL_PAGE_GROUP) is not None

    def test_round_robin_replacement_on_overflow(self):
        file = PIDRegisterFile(size=2)
        file.install(PIDEntry(group=1))
        file.install(PIDEntry(group=2))
        file.install(PIDEntry(group=3))  # replaces slot 0
        assert file.find(1) is None
        assert file.find(2) is not None
        assert file.find(3) is not None
        assert file.stats["pid.replace"] == 1

    def test_reinstall_refreshes_in_place(self):
        file = PIDRegisterFile(size=2)
        file.install(PIDEntry(group=1))
        file.install(PIDEntry(group=1, write_disable=True))
        found = file.find(1)
        assert found is not None and found.write_disable
        assert len(file.resident_groups()) == 1

    def test_drop(self):
        file = PIDRegisterFile()
        file.install(PIDEntry(group=6))
        assert file.drop(6)
        assert file.find(6) is None
        assert not file.drop(6)

    def test_clear_counts_writes(self):
        file = PIDRegisterFile(size=4)
        file.install(PIDEntry(group=1))
        file.install(PIDEntry(group=2))
        assert file.clear() == 2

    def test_load_bounds(self):
        file = PIDRegisterFile(size=2)
        with pytest.raises(IndexError):
            file.load(2, PIDEntry(group=1))

    def test_rejects_empty_file(self):
        with pytest.raises(ValueError):
            PIDRegisterFile(size=0)


class TestCheckGroupAccess:
    """The Figure 2 protection check."""

    def _holder_with(self, group: int, write_disable: bool = False) -> PageGroupCache:
        cache = PageGroupCache(4)
        cache.install(PIDEntry(group=group, write_disable=write_disable))
        return cache

    def test_matching_group_allows_per_rights(self):
        holder = self._holder_with(7)
        decision = check_group_access(7, Rights.RW, AccessType.WRITE, holder)
        assert decision.group_hit and decision.allowed
        assert decision.effective_rights == Rights.RW

    def test_missing_group_is_group_miss(self):
        holder = self._holder_with(7)
        decision = check_group_access(9, Rights.RW, AccessType.READ, holder)
        assert not decision.group_hit and not decision.allowed

    def test_write_disable_masks_writes_only(self):
        """The D bit disables writes to the whole group (Figure 2)."""
        holder = self._holder_with(7, write_disable=True)
        write = check_group_access(7, Rights.RW, AccessType.WRITE, holder)
        read = check_group_access(7, Rights.RW, AccessType.READ, holder)
        assert write.group_hit and not write.allowed
        assert write.effective_rights == Rights.READ
        assert read.allowed

    def test_rights_field_still_enforced(self):
        holder = self._holder_with(7)
        decision = check_group_access(7, Rights.READ, AccessType.WRITE, holder)
        assert decision.group_hit and not decision.allowed

    def test_group_zero_with_register_file(self):
        file = PIDRegisterFile()
        decision = check_group_access(
            GLOBAL_PAGE_GROUP, Rights.READ, AccessType.READ, file
        )
        assert decision.group_hit and decision.allowed

    def test_works_with_register_file_holder(self):
        file = PIDRegisterFile()
        file.install(PIDEntry(group=4))
        decision = check_group_access(4, Rights.RX, AccessType.EXECUTE, file)
        assert decision.allowed


class TestPageGroupProperties:
    @settings(max_examples=60)
    @given(
        groups=st.lists(st.integers(1, 30), min_size=1, max_size=40),
        capacity=st.sampled_from([2, 4, 8]),
    )
    def test_cache_capacity_respected(self, groups, capacity):
        cache = PageGroupCache(capacity)
        for group in groups:
            cache.install(PIDEntry(group=group))
        assert len(cache) <= capacity

    @settings(max_examples=60)
    @given(
        aid=st.integers(0, 20),
        held=st.lists(st.integers(1, 20), max_size=4, unique=True),
        rights=st.sampled_from([Rights.NONE, Rights.READ, Rights.RW, Rights.RWX]),
        access=st.sampled_from(list(AccessType)),
        write_disable=st.booleans(),
    )
    def test_check_never_exceeds_rights_field(self, aid, held, rights, access, write_disable):
        """Hardware never grants more than the page's rights field."""
        holder = PageGroupCache(8)
        for group in held:
            holder.install(PIDEntry(group=group, write_disable=write_disable))
        decision = check_group_access(aid, rights, access, holder)
        if decision.allowed:
            assert rights.allows(access)
            assert aid == GLOBAL_PAGE_GROUP or aid in held

    @settings(max_examples=60)
    @given(
        aid=st.integers(1, 20),
        held=st.lists(st.integers(1, 20), max_size=4, unique=True),
        access=st.sampled_from([AccessType.READ, AccessType.EXECUTE]),
    )
    def test_write_disable_never_affects_reads(self, aid, held, access):
        plain = PageGroupCache(8)
        disabled = PageGroupCache(8)
        for group in held:
            plain.install(PIDEntry(group=group))
            disabled.install(PIDEntry(group=group, write_disable=True))
        a = check_group_access(aid, Rights.RWX, access, plain)
        b = check_group_access(aid, Rights.RWX, access, disabled)
        assert a.allowed == b.allowed
