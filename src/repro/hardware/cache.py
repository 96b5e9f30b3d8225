"""Data cache models: virtually and physically indexed/tagged organizations.

Section 2.2 of the paper argues that a single address space removes the
two classic obstacles to virtually indexed, virtually tagged (VIVT)
caches — synonyms and homonyms — and therefore makes the fastest cache
organization safe without flushing on process switch or widening lines
with address-space identifiers.

:class:`DataCache` models all three organizations over the same line
store:

* ``VIVT`` — indexed and tagged with virtual address bits.  Translation is
  needed only on a miss or a dirty writeback, which the model expresses by
  taking the physical address as a *lazy* callable: the translation
  substrate is charged only when the cache actually consults it.
* ``VIPT`` — indexed virtually, tagged physically.  Translation runs in
  parallel with the index but must complete for tag compare, so the
  translation callable is always invoked.
* ``PIPT`` — indexed and tagged physically; translation precedes the
  access entirely.

The model detects the hazards the paper describes: a *synonym* is the same
physical line resident in two cache locations under different virtual
addresses (a write-coherence bug for VIVT); a *homonym* is a virtual-tag
hit whose underlying physical line belongs to a different address space
(a wrong-data bug unless lines are ASID-tagged or the cache is flushed on
context switch).
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

from repro.core.params import MachineParams, DEFAULT_PARAMS
from repro.sim.stats import Stats


class CacheOrg(enum.Enum):
    """Cache indexing/tagging organization."""

    VIVT = "vivt"
    VIPT = "vipt"
    PIPT = "pipt"

    @property
    def virtually_indexed(self) -> bool:
        return self in (CacheOrg.VIVT, CacheOrg.VIPT)

    @property
    def virtually_tagged(self) -> bool:
        return self is CacheOrg.VIVT


@dataclass
class CacheLine:
    """One resident cache line."""

    tag: int
    paddr_line: int
    asid: int
    dirty: bool = False


@dataclass
class CacheAccess:
    """Outcome of one reference.

    Attributes:
        hit: The reference hit in the cache.
        writeback: A dirty victim was written back on this access.
        translated: The translation callable was invoked (models a TLB
            access on the reference path).
        synonym_hazard: After this access the referenced physical line is
            resident in more than one cache location (VIVT/VIPT only).
        homonym_hazard: The access hit on a virtual tag whose line mapped
            a *different* physical address (multi-AS VIVT bug).  The stale
            line is invalidated and the access completed as a miss.
        victim_paddr_line: The physical line number of the dirty victim
            written back on this access (None when no writeback) — lets a
            second-level cache absorb the writeback.
    """

    hit: bool
    writeback: bool = False
    translated: bool = False
    synonym_hazard: bool = False
    homonym_hazard: bool = False
    victim_paddr_line: int | None = None


class DataCache:
    """A set-associative, write-back, write-allocate data cache.

    Args:
        size_bytes: Total capacity.
        ways: Associativity.
        org: Indexing/tagging organization.
        params: Machine parameters (line size is taken from here).
        asid_tagged: Extend virtual tags with the ASID (the conventional
            fix for homonyms the paper notes costs extra tag bits).
        detect_hazards: Verify even hitting references against their
            physical address so synonym/homonym hazards are counted.  This
            invokes the translation callable on hits as well, so leave it
            off when measuring translation traffic.
        stats: Event sink.
    """

    def __init__(
        self,
        size_bytes: int,
        ways: int,
        org: CacheOrg = CacheOrg.VIVT,
        *,
        params: MachineParams = DEFAULT_PARAMS,
        asid_tagged: bool = False,
        detect_hazards: bool = False,
        stats: Stats | None = None,
        name: str = "dcache",
    ) -> None:
        line = params.cache_line_bytes
        if size_bytes % (line * ways):
            raise ValueError("cache size must be a multiple of line size * ways")
        self.params = params
        self.org = org
        self.ways = ways
        self.asid_tagged = asid_tagged
        self.detect_hazards = detect_hazards
        self.name = name
        self.stats = stats if stats is not None else Stats()
        self.n_lines = size_bytes // line
        self.n_sets = self.n_lines // ways
        self._offset_bits = params.line_offset_bits
        self._virtually_indexed = org.virtually_indexed
        self._virtually_tagged = org.virtually_tagged
        # LRU-ordered (front = LRU) map of tag-key -> CacheLine per set.
        self._sets: list[OrderedDict[tuple, CacheLine]] = [
            OrderedDict() for _ in range(self.n_sets)
        ]
        # Interned counter handles for the per-reference path.
        self._inc_hit = self.stats.counter(f"{name}.hit")
        self._inc_miss = self.stats.counter(f"{name}.miss")
        self._inc_fill = self.stats.counter(f"{name}.fill")
        self._inc_eviction = self.stats.counter(f"{name}.eviction")
        self._inc_writeback = self.stats.counter(f"{name}.writeback")

    # ------------------------------------------------------------------ #
    # The access path

    def access(
        self,
        vaddr: int,
        translate: Callable[[], int],
        *,
        write: bool = False,
        asid: int = 0,
    ) -> CacheAccess:
        """Run one load or store through the cache.

        ``translate`` returns the physical address for ``vaddr``; it is
        invoked lazily per the organization's needs so callers can charge
        TLB traffic exactly when the hardware would generate it.
        """
        offset_bits = self._offset_bits
        virtually_tagged = self._virtually_tagged
        # Only a VIVT cache without hazard checks can defer translation.
        paddr = translate() if self.detect_hazards or not virtually_tagged else None
        translated = paddr is not None

        base = vaddr if self._virtually_indexed else paddr
        entry_set = self._sets[(base >> offset_bits) % self.n_sets]
        if virtually_tagged:
            tag = vaddr >> offset_bits
            key = (asid, tag) if self.asid_tagged else (tag,)
        else:
            tag = paddr >> offset_bits
            key = (tag,)
        line = entry_set.get(key)

        homonym = False
        if line is not None and self.detect_hazards and virtually_tagged:
            if line.paddr_line != paddr >> offset_bits:
                # Virtual tag matched but the physical target differs: a
                # homonym.  Real hardware would silently return wrong
                # data; we invalidate and fall through to a miss.
                homonym = True
                del entry_set[key]
                line = None
                self.stats.inc(f"{self.name}.homonym_hazard")

        if line is not None:
            entry_set.move_to_end(key)
            if write:
                line.dirty = True
            self._inc_hit()
            synonym = self._synonym_check(line.paddr_line) if self.detect_hazards else False
            return CacheAccess(
                hit=True,
                translated=translated,
                synonym_hazard=synonym,
                homonym_hazard=False,
            )

        # Miss path: translation is now required to fetch the line.
        self._inc_miss()
        if paddr is None:
            paddr = translate()
            translated = True
        paddr_line = paddr >> offset_bits
        writeback = False
        victim_paddr_line: int | None = None
        if len(entry_set) >= self.ways:
            _, victim = entry_set.popitem(last=False)
            self._inc_eviction()
            if victim.dirty:
                # A dirty writeback needs the victim's physical address;
                # in a VIVT cache this is the other moment translation is
                # consulted (Section 3.2.1).
                writeback = True
                victim_paddr_line = victim.paddr_line
                self._inc_writeback()
        entry_set[key] = CacheLine(tag=tag, paddr_line=paddr_line, asid=asid, dirty=write)
        self._inc_fill()
        synonym = self._synonym_check(paddr_line) if self.detect_hazards else False
        return CacheAccess(
            hit=False,
            writeback=writeback,
            translated=translated,
            synonym_hazard=synonym,
            homonym_hazard=homonym,
            victim_paddr_line=victim_paddr_line,
        )

    def _synonym_check(self, paddr_line: int) -> bool:
        """True when the physical line is resident under >1 cache key."""
        copies = sum(
            1
            for entry_set in self._sets
            for cached in entry_set.values()
            if cached.paddr_line == paddr_line
        )
        if copies > 1:
            self.stats.inc(f"{self.name}.synonym_hazard")
            return True
        return False

    # ------------------------------------------------------------------ #
    # Flushing

    def flush_page(self, vpn: int) -> tuple[int, int]:
        """Flush every line of a virtual page (one op per line, §4.1.3).

        Returns ``(lines_flushed, writebacks)``.  Implemented as the
        series of individual flush-line operations the paper says modern
        processors provide.
        """
        flushed = 0
        writebacks = 0
        page_first = vpn << (self.params.page_bits - self._offset_bits)
        page_last = page_first + (1 << (self.params.page_bits - self._offset_bits))
        for entry_set in self._sets:
            doomed = []
            for key, line in entry_set.items():
                vline = key[-1] if self.org.virtually_tagged else None
                if vline is not None and page_first <= vline < page_last:
                    doomed.append((key, line))
            for key, line in doomed:
                del entry_set[key]
                flushed += 1
                if line.dirty:
                    writebacks += 1
                    self.stats.inc(f"{self.name}.writeback")
        self.stats.inc(f"{self.name}.flush_page")
        self.stats.inc(f"{self.name}.flush_lines", flushed)
        return flushed, writebacks

    def flush_frame(self, pfn: int) -> tuple[int, int]:
        """Flush every line backed by a physical frame (any organization)."""
        flushed = 0
        writebacks = 0
        frame_first = pfn << (self.params.page_bits - self._offset_bits)
        frame_last = frame_first + (1 << (self.params.page_bits - self._offset_bits))
        for entry_set in self._sets:
            doomed = []
            for key, line in entry_set.items():
                if frame_first <= line.paddr_line < frame_last:
                    doomed.append((key, line))
            for key, line in doomed:
                del entry_set[key]
                flushed += 1
                if line.dirty:
                    writebacks += 1
                    self.stats.inc(f"{self.name}.writeback")
        self.stats.inc(f"{self.name}.flush_frame")
        self.stats.inc(f"{self.name}.flush_lines", flushed)
        return flushed, writebacks

    def purge(self) -> int:
        """Flush the whole cache (the i860-style context-switch penalty)."""
        removed = sum(len(entry_set) for entry_set in self._sets)
        dirty = sum(
            1 for entry_set in self._sets for line in entry_set.values() if line.dirty
        )
        for entry_set in self._sets:
            entry_set.clear()
        self.stats.inc(f"{self.name}.purge")
        self.stats.inc(f"{self.name}.purge_lines", removed)
        self.stats.inc(f"{self.name}.writeback", dirty)
        return removed

    # ------------------------------------------------------------------ #
    # Introspection

    def resident_lines(self):
        """Yield every resident ``(key, CacheLine)`` pair.

        For invariant checks: a virtually tagged line's key ends with the
        virtual line number, a physically tagged one's with the physical
        line number; ``line.paddr_line`` always names the backing frame.
        """
        for entry_set in self._sets:
            yield from entry_set.items()

    def resident_copies(self, paddr_line: int) -> int:
        """How many cache locations currently hold this physical line."""
        return sum(
            1
            for entry_set in self._sets
            for line in entry_set.values()
            if line.paddr_line == paddr_line
        )

    def __len__(self) -> int:
        return sum(len(entry_set) for entry_set in self._sets)

    @property
    def occupancy(self) -> float:
        return len(self) / self.n_lines
