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
  splitting a reference in two steps: :meth:`DataCache.access` probes with
  the virtual address alone, and only a miss makes the caller translate
  and :meth:`DataCache.fill` the line.
* ``VIPT`` — indexed virtually, tagged physically.  Translation runs in
  parallel with the index but must complete for tag compare, so the
  caller translates before the probe.
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
            physical address so synonym/homonym hazards are counted.  The
            caller then translates on hits as well (see
            :attr:`translates_first`), so leave it off when measuring
            translation traffic.
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
        #: The probe needs the physical address: a physically tagged
        #: cache compares it, and hazard checks verify every hit with it.
        #: Only a VIVT cache without hazard checks probes without it, so
        #: its caller translates only after a miss.
        self.translates_first = detect_hazards or not org.virtually_tagged
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

    def _locate(self, vaddr: int, paddr: int | None, asid: int):
        """The set and the tag key a reference probes and fills."""
        offset_bits = self._offset_bits
        base = vaddr if self._virtually_indexed else paddr
        entry_set = self._sets[(base >> offset_bits) % self.n_sets]
        if not self._virtually_tagged:
            return entry_set, (paddr >> offset_bits,)
        if self.asid_tagged:
            return entry_set, (asid, vaddr >> offset_bits)
        return entry_set, (vaddr >> offset_bits,)

    def access(
        self,
        vaddr: int,
        paddr: int | None = None,
        *,
        write: bool = False,
        asid: int = 0,
    ) -> bool:
        """Probe for one load or store; True on a hit.

        Counts the hit or the miss.  A hit refreshes the line's LRU
        position and marks it dirty on a store.  ``paddr`` is required
        when :attr:`translates_first` is set and ignored otherwise.  On a
        miss the caller translates (if it has not) and calls :meth:`fill`.
        """
        entry_set, key = self._locate(vaddr, paddr, asid)
        line = entry_set.get(key)
        if line is not None:
            if (
                self.detect_hazards
                and self._virtually_tagged
                and line.paddr_line != paddr >> self._offset_bits
            ):
                # Virtual tag matched but the physical target differs: a
                # homonym.  Real hardware would silently return wrong
                # data; we invalidate and fall through to a miss.
                del entry_set[key]
                self.stats.inc(f"{self.name}.homonym_hazard")
            else:
                entry_set.move_to_end(key)
                if write:
                    line.dirty = True
                self._inc_hit()
                if self.detect_hazards:
                    self._synonym_check(line.paddr_line)
                return True
        self._inc_miss()
        return False

    def fill(
        self, vaddr: int, paddr: int, *, write: bool = False, asid: int = 0
    ) -> int | None:
        """Install the line a missing :meth:`access` probed for.

        Evicts the set's LRU line when the set is full.  Returns the
        physical line number of a dirty victim, which is written back
        (None when there is none) — so a second-level cache can absorb
        the writeback.  In a VIVT cache this is the other moment
        translation is consulted (Section 3.2.1).
        """
        entry_set, key = self._locate(vaddr, paddr, asid)
        paddr_line = paddr >> self._offset_bits
        victim_paddr_line: int | None = None
        if len(entry_set) >= self.ways:
            _, victim = entry_set.popitem(last=False)
            self._inc_eviction()
            if victim.dirty:
                victim_paddr_line = victim.paddr_line
                self._inc_writeback()
        entry_set[key] = CacheLine(tag=key[-1], paddr_line=paddr_line, asid=asid, dirty=write)
        self._inc_fill()
        if self.detect_hazards:
            self._synonym_check(paddr_line)
        return victim_paddr_line

    def _synonym_check(self, paddr_line: int) -> None:
        """Count a synonym hazard: the line is resident under >1 cache key."""
        if self.resident_copies(paddr_line) > 1:
            self.stats.inc(f"{self.name}.synonym_hazard")

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
