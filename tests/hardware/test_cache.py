"""Unit tests for the data cache models, including the synonym and
homonym behaviour of Section 2.2."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.params import MachineParams
from repro.hardware.cache import CacheOrg, DataCache

PARAMS = MachineParams()  # 32-byte lines, 4K pages
LINE = PARAMS.cache_line_bytes


def make(org=CacheOrg.VIVT, size=1024, ways=1, **kw) -> DataCache:
    return DataCache(size, ways, org, params=PARAMS, **kw)


def identity_translate(vaddr: int):
    """Physical address == virtual address (convenient for unit tests)."""
    return lambda: vaddr


def reference(cache: DataCache, vaddr: int, translate, *, write=False, asid=0):
    """One load or store in the cache's two steps, as a memory system
    runs it: translate before the probe only where the cache needs the
    physical address, otherwise only after a miss, then fill.

    Returns ``(hit, victim_paddr_line)``; the victim is the dirty line a
    fill wrote back (None on a hit or a clean eviction).
    """
    paddr = translate() if cache.translates_first else None
    if cache.access(vaddr, paddr, write=write, asid=asid):
        return True, None
    if paddr is None:
        paddr = translate()
    return False, cache.fill(vaddr, paddr, write=write, asid=asid)


def hit(cache: DataCache, vaddr: int, translate, **kw) -> bool:
    return reference(cache, vaddr, translate, **kw)[0]


class TestBasicCaching:
    def test_miss_then_hit(self):
        cache = make()
        first = hit(cache, 0x1000, identity_translate(0x1000))
        again = hit(cache, 0x1000, identity_translate(0x1000))
        assert not first and again

    def test_line_granularity(self):
        cache = make()
        reference(cache, 0x1000, identity_translate(0x1000))
        same_line = hit(cache, 0x1000 + LINE - 1, identity_translate(0x1000 + LINE - 1))
        next_line = hit(cache, 0x1000 + LINE, identity_translate(0x1000 + LINE))
        assert same_line and not next_line

    def test_write_allocate_and_dirty_writeback(self):
        cache = make(size=2 * LINE, ways=1)  # 2 sets, direct mapped
        reference(cache, 0, identity_translate(0), write=True)
        # A conflicting line in set 0 evicts the dirty victim.
        conflict = 2 * LINE
        _, victim = reference(cache, conflict, identity_translate(conflict))
        assert victim == 0
        assert cache.stats["dcache.writeback"] == 1

    def test_clean_eviction_no_writeback(self):
        cache = make(size=2 * LINE, ways=1)
        reference(cache, 0, identity_translate(0))
        _, victim = reference(cache, 2 * LINE, identity_translate(2 * LINE))
        assert victim is None
        assert cache.stats["dcache.eviction"] == 1

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            DataCache(100, 3, CacheOrg.VIVT, params=PARAMS)

    def test_occupancy(self):
        cache = make(size=4 * LINE)
        assert cache.occupancy == 0.0
        reference(cache, 0, identity_translate(0))
        assert cache.occupancy == 0.25


class TestTranslationLaziness:
    def test_vivt_translates_only_on_miss(self):
        """The PLB system's point: hits never consult the TLB (§3.2.1)."""
        cache = make(CacheOrg.VIVT)
        calls = 0

        def translate():
            nonlocal calls
            calls += 1
            return 0x1000

        assert not cache.translates_first
        assert not hit(cache, 0x1000, translate)
        assert calls == 1
        # The probe needs no physical address at all.
        assert cache.access(0x1000)
        assert hit(cache, 0x1000, translate)
        assert calls == 1

    def test_hazard_checks_translate_every_access(self):
        cache = make(CacheOrg.VIVT, detect_hazards=True)
        assert cache.translates_first

    def test_vipt_translates_every_access(self):
        cache = make(CacheOrg.VIPT)
        calls = 0

        def translate():
            nonlocal calls
            calls += 1
            return 0x1000

        assert cache.translates_first
        reference(cache, 0x1000, translate)
        reference(cache, 0x1000, translate)
        assert calls == 2

    def test_pipt_translates_every_access(self):
        cache = make(CacheOrg.PIPT)
        calls = 0

        def translate():
            nonlocal calls
            calls += 1
            return 0x1000

        assert cache.translates_first
        reference(cache, 0x1000, translate)
        reference(cache, 0x1000, translate)
        assert calls == 2


class TestSynonyms:
    def test_vivt_synonym_detected(self):
        """Two virtual names for one physical line coexist in a VIVT
        cache — the write-coherence hazard of Section 2.2."""
        cache = make(CacheOrg.VIVT, size=64 * LINE, detect_hazards=True)
        paddr = 0x9000
        # The two virtual names index different sets, so both copies of
        # the physical line are resident at once.
        reference(cache, 0x1000, lambda: paddr, write=True)
        assert cache.stats["dcache.synonym_hazard"] == 0
        reference(cache, 0x2020, lambda: paddr)
        assert cache.stats["dcache.synonym_hazard"] == 1
        assert cache.resident_copies(paddr >> 5) == 2

    def test_pipt_cannot_hold_synonyms(self):
        cache = make(CacheOrg.PIPT, size=64 * LINE, detect_hazards=True)
        paddr = 0x9000
        reference(cache, 0x1000, lambda: paddr)
        # Same physical tag: one line, no duplicate.
        assert hit(cache, 0x5000, lambda: paddr)
        assert cache.resident_copies(paddr >> 5) == 1

    def test_sasos_no_synonym_when_va_unique(self):
        """With one VA per datum (SASOS), VIVT never duplicates."""
        cache = make(CacheOrg.VIVT, size=64 * LINE, detect_hazards=True)
        for vaddr in (0x1000, 0x2000, 0x3000):
            reference(cache, vaddr, identity_translate(vaddr))
            reference(cache, vaddr, identity_translate(vaddr))
        assert cache.stats["dcache.synonym_hazard"] == 0


class TestHomonyms:
    def test_vivt_homonym_detected_and_neutralized(self):
        """Same VA, different physical targets across address spaces."""
        cache = make(CacheOrg.VIVT, size=64 * LINE, detect_hazards=True)
        reference(cache, 0x1000, lambda: 0x9000, asid=0)
        # Hardware without ASID tags would hit and return wrong data.
        assert not hit(cache, 0x1000, lambda: 0xA000, asid=0)
        assert cache.stats["dcache.homonym_hazard"] == 1

    def test_asid_tags_separate_homonyms(self):
        """ASID-extended tags avoid the wrong-hit (§2.2's fix)."""
        cache = make(CacheOrg.VIVT, size=64 * LINE, asid_tagged=True, detect_hazards=True)
        reference(cache, 0x1000, lambda: 0x9000, asid=1)
        assert not hit(cache, 0x1000, lambda: 0xA000, asid=2)  # distinct tag, a simple miss
        assert cache.stats["dcache.homonym_hazard"] == 0

    def test_sasos_single_translation_no_homonym(self):
        cache = make(CacheOrg.VIVT, size=64 * LINE, detect_hazards=True)
        reference(cache, 0x1000, lambda: 0x9000, asid=1)
        assert hit(cache, 0x1000, lambda: 0x9000, asid=2)
        assert cache.stats["dcache.homonym_hazard"] == 0


class TestVIPTAliasing:
    def test_vipt_synonym_across_sets_detected(self):
        """When index bits exceed the page offset, a VIPT cache can hold
        one physical line in two sets (the classic VIPT constraint the
        paper's footnote 3 alludes to)."""
        # 64 sets * 32B = 2KB of index span < 4KB page: index within
        # page offset; grow the cache so index bits pass the page
        # boundary: 512 sets * 32B = 16KB > 4KB.
        cache = make(CacheOrg.VIPT, size=512 * LINE, ways=1, detect_hazards=True)
        paddr = 0x9000
        # Two virtual names for paddr differing in index bits above the
        # page offset (bit 12).
        reference(cache, 0x1000, lambda: paddr, write=True)
        reference(cache, 0x2000, lambda: paddr)
        assert cache.stats["dcache.synonym_hazard"] == 1
        assert cache.resident_copies(paddr >> 5) == 2

    def test_vipt_same_color_synonyms_coalesce(self):
        """Synonyms agreeing in index bits hit the same line (physical
        tags match): page-coloring makes VIPT safe."""
        cache = make(CacheOrg.VIPT, size=512 * LINE, ways=1, detect_hazards=True)
        paddr = 0x9000
        reference(cache, 0x1000, lambda: paddr, write=True)
        # 0x5000 and 0x1000 share index bits modulo the cache span.
        assert hit(cache, 0x5000, lambda: paddr)
        assert cache.resident_copies(paddr >> 5) == 1


class TestFlushing:
    def test_flush_page_removes_only_that_page(self):
        cache = make(size=256 * LINE)
        reference(cache, 0x1000, identity_translate(0x1000), write=True)
        reference(cache, 0x2000, identity_translate(0x2000))
        flushed, writebacks = cache.flush_page(1)  # vpn 1 = 0x1000
        assert flushed == 1 and writebacks == 1
        assert not hit(cache, 0x1000, identity_translate(0x1000))

    def test_flush_page_counts_per_line_ops(self):
        """Flush is one operation per cache line (§4.1.3)."""
        cache = make(size=256 * LINE)
        for offset in range(0, 4 * LINE, LINE):
            reference(cache, 0x1000 + offset, identity_translate(0x1000 + offset))
        flushed, _ = cache.flush_page(1)
        assert flushed == 4
        assert cache.stats["dcache.flush_lines"] == 4

    def test_flush_frame_for_physical_caches(self):
        cache = make(CacheOrg.PIPT, size=256 * LINE)
        reference(cache, 0x1000, lambda: 0x3000, write=True)
        flushed, writebacks = cache.flush_frame(3)
        assert flushed == 1 and writebacks == 1

    def test_purge_writes_back_dirty_lines(self):
        cache = make(size=64 * LINE)
        reference(cache, 0x0, identity_translate(0x0), write=True)
        reference(cache, 0x20, identity_translate(0x20))  # a different set
        assert cache.purge() == 2
        assert cache.stats["dcache.writeback"] == 1
        assert len(cache) == 0


class TestWritebackModel:
    """Differential test: every access, in every organization, against
    a brute-force reference model."""

    #: Virtual pages the ops touch; they map onto a permutation of frames
    #: starting at FRAME_BASE, so virtual and physical tags always differ.
    PAGES = 10
    FRAME_BASE = 16
    #: 256 sets span two pages (128 lines each), so a virtually indexed
    #: set differs from the physically indexed one whenever the
    #: permutation changes a page's parity.
    SETS = 256

    @settings(max_examples=60)
    @given(
        ops=st.lists(
            # (page, line within the page, write?)
            st.tuples(st.integers(0, PAGES - 1), st.integers(0, 3), st.booleans()),
            min_size=1, max_size=150,
        ),
        ways=st.sampled_from([1, 2, 4]),
        org=st.sampled_from(list(CacheOrg)),
        frames=st.permutations(range(PAGES)),
    )
    def test_writebacks_match_reference(self, ops, ways, org, frames):
        cache = DataCache(self.SETS * ways * LINE, ways, org, params=PARAMS)
        assert cache.n_sets == self.SETS
        lines_per_page = PARAMS.page_size // LINE
        # Reference: per-set list of [tag, paddr_line, dirty], LRU first.
        model: dict[int, list[list]] = {s: [] for s in range(self.SETS)}
        model_writebacks = 0
        for page, line_in_page, write in ops:
            vaddr = PARAMS.vaddr(page, line_in_page * LINE)
            paddr = PARAMS.vaddr(self.FRAME_BASE + frames[page], line_in_page * LINE)
            calls = []

            def translate(paddr=paddr):
                calls.append(paddr)
                return paddr

            hit_, victim_paddr_line = reference(cache, vaddr, translate, write=write)

            vline, pline = vaddr // LINE, paddr // LINE
            assert vline // lines_per_page != pline // lines_per_page
            index = (vline if org.virtually_indexed else pline) % self.SETS
            tag = vline if org.virtually_tagged else pline
            entries = model[index]
            found = next((e for e in entries if e[0] == tag), None)
            victim_line = None
            if found:
                entries.remove(found)
                found[2] = found[2] or write
                entries.append(found)
            else:
                if len(entries) >= ways:
                    victim = entries.pop(0)
                    if victim[2]:
                        model_writebacks += 1
                        victim_line = victim[1]
                entries.append([tag, pline, write])
            translated = not found if org is CacheOrg.VIVT else True
            assert hit_ == bool(found)
            assert len(calls) == int(translated)
            assert victim_paddr_line == victim_line
        assert cache.stats["dcache.writeback"] == model_writebacks
        # Residency agrees too: every line, its frame and its dirty bit.
        model_lines = sorted(tuple(e) for s in model.values() for e in s)
        resident = sorted(
            (key[-1], line.paddr_line, line.dirty) for key, line in cache.resident_lines()
        )
        assert resident == model_lines


class TestCacheProperties:
    @settings(max_examples=40)
    @given(
        addrs=st.lists(st.integers(0, 1 << 20).map(lambda a: a & ~7), min_size=1, max_size=120),
        org=st.sampled_from(list(CacheOrg)),
        ways=st.sampled_from([1, 2, 4]),
    )
    def test_capacity_never_exceeded(self, addrs, org, ways):
        cache = DataCache(32 * LINE, ways, org, params=PARAMS)
        for vaddr in addrs:
            reference(cache, vaddr, identity_translate(vaddr))
        assert len(cache) <= cache.n_lines

    @settings(max_examples=40)
    @given(addrs=st.lists(st.integers(0, 1 << 16), min_size=1, max_size=80))
    def test_repeat_access_hits_within_capacity(self, addrs):
        """Any address re-accessed immediately must hit."""
        cache = DataCache(64 * LINE, 4, CacheOrg.VIVT, params=PARAMS)
        for vaddr in addrs:
            reference(cache, vaddr, identity_translate(vaddr))
            assert hit(cache, vaddr, identity_translate(vaddr))

    @settings(max_examples=40)
    @given(addrs=st.lists(st.integers(0, 1 << 16), min_size=1, max_size=80))
    def test_identity_mapping_never_hazards(self, addrs):
        """A single address space (unique VA<->PA) has no hazards."""
        cache = DataCache(
            32 * LINE, 2, CacheOrg.VIVT, params=PARAMS, detect_hazards=True
        )
        for vaddr in addrs:
            reference(cache, vaddr, identity_translate(vaddr))
        assert cache.stats["dcache.synonym_hazard"] == 0
        assert cache.stats["dcache.homonym_hazard"] == 0
