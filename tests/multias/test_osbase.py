"""Tests for the multi-address-space baseline: synonyms and homonyms
exist there (and nowhere in a SASOS) — Section 2.2."""

from __future__ import annotations

import pytest

from repro.core.rights import AccessType, Rights
from repro.multias.osbase import AddressSpaceError, MultiASOS


class TestProcessesAndMappings:
    def test_private_mappings_isolated(self):
        os = MultiASOS()
        a = os.create_process("a")
        b = os.create_process("b")
        os.map_private(a, 0x10)
        with pytest.raises(AddressSpaceError):
            os.access(b, 0x10 << 12)

    def test_double_map_rejected(self):
        os = MultiASOS()
        a = os.create_process("a")
        os.map_private(a, 0x10)
        with pytest.raises(AddressSpaceError):
            os.map_private(a, 0x10)

    def test_shared_map_requires_live_frame(self):
        os = MultiASOS()
        a = os.create_process("a")
        with pytest.raises(AddressSpaceError):
            os.map_shared(a, 0x10, pfn=999)

    def test_rights_enforced(self):
        os = MultiASOS()
        a = os.create_process("a")
        os.map_private(a, 0x10, rights=Rights.READ)
        os.access(a, 0x10 << 12)
        with pytest.raises(AddressSpaceError):
            os.access(a, 0x10 << 12, AccessType.WRITE)


class TestSynonyms:
    def _shared_two_ways(self, os):
        """The same frame mapped at different VAs in two processes."""
        a = os.create_process("a")
        b = os.create_process("b")
        pfn = os.map_private(a, 0x10)
        os.map_shared(b, 0x11, pfn)  # different VA -> different cache set
        return a, b, pfn

    def test_synonym_duplicates_line_in_vivt_cache(self):
        os = MultiASOS()
        a, b, pfn = self._shared_two_ways(os)
        os.access(a, 0x10 << 12, AccessType.WRITE)
        os.access(b, 0x11 << 12)
        assert os.synonym_hazards >= 1
        assert os.cache.resident_copies((pfn << 12) >> 5) == 2

    def test_synonym_hazard_is_a_write_coherence_bug(self):
        """Both copies resident, one dirty: a write through one virtual
        name is invisible through the other."""
        os = MultiASOS()
        a, b, _ = self._shared_two_ways(os)
        os.access(a, 0x10 << 12, AccessType.WRITE)
        assert os.synonym_hazards == 0
        os.access(b, 0x11 << 12)
        assert os.synonym_hazards == 1


class TestHomonyms:
    def _same_va_two_frames(self, os):
        """VA 0x10 means different physical pages in two processes."""
        a = os.create_process("a")
        b = os.create_process("b")
        os.map_private(a, 0x10)
        os.map_private(b, 0x10)
        return a, b

    def test_homonym_wrong_hit_detected(self):
        os = MultiASOS()
        a, b = self._same_va_two_frames(os)
        os.access(a, 0x10 << 12)
        assert not os.access(b, 0x10 << 12)
        assert os.homonym_hazards == 1

    def test_flush_on_switch_avoids_homonyms(self):
        """The i860-style fix: flush the cache on each switch."""
        os = MultiASOS(flush_on_switch=True)
        a, b = self._same_va_two_frames(os)
        os.access(a, 0x10 << 12)
        os.access(b, 0x10 << 12)
        assert os.homonym_hazards == 0
        assert os.stats["dcache.purge"] >= 1

    def test_flush_on_switch_destroys_useful_state(self):
        """...at the cost of cold-starting the cache (§2.2)."""
        os = MultiASOS(flush_on_switch=True)
        a, b = self._same_va_two_frames(os)
        os.access(a, 0x10 << 12)
        os.access(b, 0x10 << 12)
        assert not os.access(a, 0x10 << 12)  # would have hit without flushes

    def test_asid_tags_avoid_homonyms_without_flushing(self):
        os = MultiASOS(asid_tagged_cache=True, cache_ways=2)
        a, b = self._same_va_two_frames(os)
        os.access(a, 0x10 << 12)
        os.access(b, 0x10 << 12)
        assert os.homonym_hazards == 0
        # And process a's line survives:
        assert os.access(a, 0x10 << 12)

    def test_asid_tags_reintroduce_synonym_for_shared_data(self):
        """Section 2.2: address extension 'introduces the synonym
        problem when different address spaces use the same virtual
        address to refer to the same location'."""
        os = MultiASOS(asid_tagged_cache=True, cache_ways=2)
        a = os.create_process("a")
        b = os.create_process("b")
        pfn = os.map_private(a, 0x10)
        os.map_shared(b, 0x10, pfn)  # same VA, same frame
        os.access(a, 0x10 << 12, AccessType.WRITE)
        os.access(b, 0x10 << 12)
        assert os.synonym_hazards == 1  # two tagged copies of one line
