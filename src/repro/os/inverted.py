"""An inverted page table: the 801-style global translation substrate.

Section 3.1 suggests that a SASOS keep "a single table of translations
that is shared by all domains ... (similar to the inverted page table on
the IBM 801)".  The dict-backed
:class:`~repro.os.pagetable.GlobalTranslationTable` is the convenient
model; this module supplies the *actual* structure the paper gestures
at: one entry per physical frame, reached through a hash anchor table
with collision chains, so the software walk cost (probe count) of a
TLB refill is measurable.

:class:`InvertedPageTable` implements the same interface as
``GlobalTranslationTable`` and can replace it under the kernel via
``Kernel(..., inverted_table=True)``-style wiring in user code; the
size of the structure is Θ(physical frames), *independent of how sparse
the 64-bit virtual space is* — exactly why inverted tables pair well
with huge address spaces.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.stats import Stats


@dataclass
class _InvertedEntry:
    """One per physical frame."""

    vpn: int | None = None
    on_disk: bool = False
    #: Next frame index in this hash bucket's chain (-1 ends it).
    next_index: int = -1


@dataclass
class PageMappingView:
    """Mapping state compatible with GlobalTranslationTable's mapping()."""

    pfn: int | None
    on_disk: bool

    @property
    def resident(self) -> bool:
        return self.pfn is not None


class InvertedPageTable:
    """Frame-indexed translation table with a hash anchor table.

    Storage is one entry per frame plus the anchor array — megabytes
    for gigabytes of memory, regardless of the 2^52-page virtual space.
    Lookup probes the anchor's chain; ``ipt.probes`` counts the walk
    length (the 801's refill cost).
    """

    def __init__(self, n_frames: int, *, anchor_ratio: int = 2,
                 stats: Stats | None = None) -> None:
        if n_frames <= 0:
            raise ValueError("need at least one frame")
        self.n_frames = n_frames
        self.stats = stats if stats is not None else Stats()
        self._entries = [_InvertedEntry() for _ in range(n_frames)]
        self._n_anchors = max(1, n_frames * anchor_ratio)
        self._anchors = [-1] * self._n_anchors
        #: Pages that are known but not resident (paged out): the IPT
        #: cannot hold them (it has no frame slot), so they spill to a
        #: software side table, as real inverted-table systems do.
        self._non_resident: dict[int, bool] = {}

    def _bucket(self, vpn: int) -> int:
        return hash(vpn) % self._n_anchors

    # ------------------------------------------------------------------ #
    # GlobalTranslationTable-compatible interface

    def map(self, vpn: int, pfn: int) -> None:
        if not 0 <= pfn < self.n_frames:
            raise ValueError(f"frame {pfn} out of range")
        entry = self._entries[pfn]
        if entry.vpn is not None:
            self._unlink(entry.vpn, pfn)
        existing = self._find_frame(vpn)
        if existing is not None:
            self._unlink(vpn, existing)
            self._entries[existing].vpn = None
        entry.vpn = vpn
        entry.on_disk = self._non_resident.pop(vpn, False)
        bucket = self._bucket(vpn)
        entry.next_index = self._anchors[bucket]
        self._anchors[bucket] = pfn
        self.stats.inc("ipt.map")

    def unmap(self, vpn: int) -> int | None:
        pfn = self._find_frame(vpn)
        if pfn is None:
            return None
        entry = self._entries[pfn]
        self._unlink(vpn, pfn)
        self._non_resident[vpn] = entry.on_disk
        entry.vpn = None
        entry.next_index = -1
        self.stats.inc("ipt.unmap")
        return pfn

    def pfn_for(self, vpn: int) -> int | None:
        return self._find_frame(vpn)

    def peek(self, vpn: int) -> int | None:
        """:meth:`pfn_for` without accounting (the audit's read)."""
        return self._walk(vpn)[0]

    def is_resident(self, vpn: int) -> bool:
        return self._find_frame(vpn) is not None

    def is_known(self, vpn: int) -> bool:
        return self.is_resident(vpn) or vpn in self._non_resident

    def mark_on_disk(self, vpn: int, on_disk: bool = True) -> None:
        pfn = self._find_frame(vpn)
        if pfn is not None:
            self._entries[pfn].on_disk = on_disk
        else:
            self._non_resident[vpn] = on_disk

    def mapping(self, vpn: int) -> PageMappingView | None:
        pfn = self._find_frame(vpn)
        if pfn is not None:
            return PageMappingView(pfn=pfn, on_disk=self._entries[pfn].on_disk)
        if vpn in self._non_resident:
            return PageMappingView(pfn=None, on_disk=self._non_resident[vpn])
        return None

    def forget(self, vpn: int) -> None:
        pfn = self._find_frame(vpn)
        if pfn is not None:
            self._unlink(vpn, pfn)
            self._entries[pfn] = _InvertedEntry()
        self._non_resident.pop(vpn, None)

    def resident_vpns(self) -> list[int]:
        return [entry.vpn for entry in self._entries if entry.vpn is not None]

    def __len__(self) -> int:
        return sum(1 for entry in self._entries if entry.vpn is not None) + len(
            self._non_resident
        )

    # ------------------------------------------------------------------ #
    # Chain plumbing

    def _find_frame(self, vpn: int) -> int | None:
        pfn, probes = self._walk(vpn)
        self.stats.inc("ipt.lookup")
        self.stats.inc("ipt.probes", probes)
        return pfn

    def _walk(self, vpn: int) -> tuple[int | None, int]:
        """The frame holding ``vpn`` (or None) and the chain probes taken."""
        index = self._anchors[self._bucket(vpn)]
        probes = 0
        while index != -1:
            probes += 1
            entry = self._entries[index]
            if entry.vpn == vpn:
                return index, probes
            index = entry.next_index
        return None, probes

    def _unlink(self, vpn: int, pfn: int) -> None:
        bucket = self._bucket(vpn)
        index = self._anchors[bucket]
        if index == pfn:
            self._anchors[bucket] = self._entries[pfn].next_index
            return
        while index != -1:
            entry = self._entries[index]
            if entry.next_index == pfn:
                entry.next_index = self._entries[pfn].next_index
                return
            index = entry.next_index

    # ------------------------------------------------------------------ #
    # Accounting

    def table_bits(self, *, entry_bits: int = 64, anchor_bits: int = 24) -> int:
        """Total structure storage: frames + anchors, VA-size independent."""
        return self.n_frames * entry_bits + self._n_anchors * anchor_bits

    @property
    def mean_probe_length(self) -> float:
        lookups = self.stats["ipt.lookup"]
        return self.stats["ipt.probes"] / lookups if lookups else 0.0
