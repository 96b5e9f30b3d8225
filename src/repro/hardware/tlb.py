"""Translation lookaside buffer variants for the three memory systems.

The paper contrasts three TLB organizations (Sections 3.1 and 3.2):

* :class:`TranslationTLB` — the PLB system's TLB.  It holds *only*
  virtual-to-physical translations plus dirty/referenced bits; protection
  lives in the PLB.  One entry per page regardless of how many domains
  share it, and the TLB sits off the critical path (it is consulted only
  on data-cache misses and writebacks), so it can be large.

* :class:`AIDTaggedTLB` — the PA-RISC page-group system's TLB.  Each entry
  carries the translation, the page's access-rights field, and the AID
  (page-group number) checked against the PID registers.  Still one entry
  per page, but the TLB must be probed on *every* reference, so it stays
  on chip.

* :class:`ASIDTaggedTLB` — the conventional multi-address-space TLB of
  Section 3.1, tagged with an address-space identifier and combining
  translation with protection.  Sharing a page among N domains replicates
  the translation N times, the duplication the paper identifies as waste.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.assoc import AssocCache
from repro.core.rights import Rights
from repro.sim.stats import Stats


@dataclass
class TranslationEntry:
    """A pure translation plus dirty/referenced bits.

    ``pfn`` is the frame of the unit's *first* page; for a level-0
    (single page) entry that is the page's own frame.  A superpage entry
    at level L covers ``2**L`` contiguous pages backed by ``2**L``
    contiguous frames (Section 4.3 / Talluri et al.).
    """

    pfn: int
    level: int = 0
    dirty: bool = False
    referenced: bool = False

    def pfn_for(self, vpn: int) -> int:
        """The frame backing ``vpn`` within this entry's unit."""
        if self.level == 0:
            return self.pfn
        offset = vpn - ((vpn >> self.level) << self.level)
        return self.pfn + offset


@dataclass
class PageGroupEntry:
    """An AID-tagged TLB entry: translation + rights + page-group number."""

    pfn: int
    rights: Rights
    aid: int
    dirty: bool = False
    referenced: bool = False


@dataclass
class CombinedEntry:
    """A conventional TLB entry: translation + per-domain rights."""

    pfn: int
    rights: Rights
    dirty: bool = False
    referenced: bool = False


class TranslationTLB:
    """Translation-only TLB keyed by VPN (the PLB system's second level).

    Because entries contain no protection, a purge is required "only on
    the change of a virtual-to-physical translation" (Section 3.2.1) —
    domain switches leave it untouched.

    ``levels`` enables multiple translation page sizes (Section 4.3,
    after Talluri et al.): an entry at level L maps ``2**L`` virtually
    and physically contiguous pages, multiplying TLB reach.  A lookup
    probes every configured level; the default ``(0,)`` is the classic
    single-size TLB.
    """

    def __init__(self, entries: int, ways: int | None = None, *,
                 levels: tuple[int, ...] = (0,),
                 stats: Stats | None = None, name: str = "tlb") -> None:
        if not levels or any(level < 0 for level in levels):
            raise ValueError("levels must be non-empty, non-negative page shifts")
        self.stats = stats if stats is not None else Stats()
        self.name = name
        self.levels = tuple(sorted(set(levels), reverse=True))
        # An uncounted store: hits/misses are accounted once per lookup
        # across all probed levels.
        self._cache: AssocCache[tuple[int, int], TranslationEntry] = AssocCache(
            entries, ways, name=None, set_of=lambda key: key[1]
        )
        # Graceful degradation: a disabled TLB misses every lookup and
        # installs nothing, so every reference re-walks the translation
        # table (cost visible as ``{name}.disabled_walk``).
        self._disabled = False
        self._inc_hit = self.stats.counter(f"{name}.hit")
        self._inc_miss = self.stats.counter(f"{name}.miss")
        self._inc_disabled_walk = self.stats.counter(f"{name}.disabled_walk")

    def lookup(self, vpn: int) -> TranslationEntry | None:
        """Probe all levels for a translation covering ``vpn``."""
        if self._disabled:
            self._inc_disabled_walk()
            return None
        probe = self._cache.probe
        for level in self.levels:
            entry = probe((level, vpn >> level))
            if entry is not None:
                self._inc_hit()
                return entry
        self._inc_miss()
        return None

    def fill(self, vpn: int, pfn: int, *, level: int = 0,
             dirty: bool = False) -> TranslationEntry:
        """Install a translation; ``pfn`` is the unit's base frame."""
        if level not in self.levels:
            raise ValueError(f"level {level} not configured (have {self.levels})")
        entry = TranslationEntry(pfn=pfn, level=level, dirty=dirty, referenced=True)
        if self._disabled:
            # Hand the walker its entry without caching it: the access
            # completes but the next reference walks the table again.
            return entry
        self._cache.fill((level, vpn >> level), entry)
        self.stats.inc(f"{self.name}.fill")
        return entry

    def invalidate(self, vpn: int) -> bool:
        """Drop the translation covering ``vpn`` (any level)."""
        for level in self.levels:
            if self._cache.invalidate((level, vpn >> level)):
                self.stats.inc(f"{self.name}.invalidate")
                return True
        return False

    def invalidate_pages(self, vpns) -> int:
        """Drop the translations covering a VPN batch in one sweep.

        The range-shootdown fast path: instead of probing every level
        per page, one associative pass removes every entry whose
        ``(level, unit)`` covers a batched page.  Returns entries
        removed; accounting matches ``invalidate`` per entry.
        """
        units = {(level, vpn >> level) for vpn in vpns for level in self.levels}
        _, removed = self._cache.sweep(lambda key, _entry: key in units)
        if removed:
            self.stats.inc(f"{self.name}.invalidate", removed)
        return removed

    def purge(self) -> int:
        removed = self._cache.purge()
        self.stats.inc(f"{self.name}.purge")
        self.stats.inc(f"{self.name}.purge_removed", removed)
        return removed

    def drop(self, key: tuple[int, int]) -> bool:
        """Remove one ``(level, unit)`` entry without accounting (scrub)."""
        return self._cache.drop(key)

    def disable(self) -> None:
        """Take a flaky TLB offline (machine-check degradation)."""
        self._cache.purge()
        self._disabled = True
        self.stats.inc(f"{self.name}.disabled")

    def enable(self) -> None:
        self._disabled = False

    @property
    def disabled(self) -> bool:
        return self._disabled

    def __contains__(self, vpn: int) -> bool:
        return any(
            self._cache.peek((level, vpn >> level)) is not None
            for level in self.levels
        )

    def __len__(self) -> int:
        return len(self._cache)

    @property
    def occupancy(self) -> float:
        return self._cache.occupancy

    def reach_pages(self) -> int:
        """Total pages covered by the resident entries (TLB reach)."""
        return sum(1 << key[0] for key, _ in self._cache.items())

    def items(self):
        """Resident ``((level, unit), entry)`` pairs, for invariant checks."""
        return self._cache.items()


class AIDTaggedTLB:
    """The PA-RISC-style TLB: one entry per page with rights and an AID.

    The rights and AID are shared by every domain that can reach the page;
    which domains those are is decided by the page-group cache, not here.
    """

    def __init__(self, entries: int, ways: int | None = None, *,
                 stats: Stats | None = None, name: str = "pgtlb") -> None:
        self.stats = stats if stats is not None else Stats()
        self._cache: AssocCache[int, PageGroupEntry] = AssocCache(
            entries, ways, name=name, stats=self.stats, set_of=lambda vpn: vpn
        )

    def lookup(self, vpn: int) -> PageGroupEntry | None:
        return self._cache.lookup(vpn)

    def fill(self, vpn: int, pfn: int, rights: Rights, aid: int) -> PageGroupEntry:
        entry = PageGroupEntry(pfn=pfn, rights=rights, aid=aid, referenced=True)
        self._cache.fill(vpn, entry)
        return entry

    def update(self, vpn: int, *, rights: Rights | None = None, aid: int | None = None) -> bool:
        """Rewrite the rights and/or AID of a resident entry.

        This is the page-group model's cheap path for protection changes
        that affect *all* domains (Table 1: "the change is easily made in
        a single TLB entry").
        """
        entry = self._cache.peek(vpn)
        if entry is None:
            return False
        if rights is not None:
            entry.rights = rights
        if aid is not None:
            entry.aid = aid
        self.stats.inc(f"{self._cache.name}.update")
        return True

    def update_pages(self, vpns, *, rights: Rights | None = None,
                     aid: int | None = None) -> int:
        """Rewrite rights and/or AID for every resident page of a batch.

        The range-shootdown fast path: one message applies a whole
        batched verb (e.g. "move K pages into a group"), probing each of
        the K distinct pages once and leaving LRU order alone.  Returns
        entries changed; ``{name}.update`` counts them as :meth:`update`
        would page by page.
        """
        peek = self._cache.peek
        changed = 0
        for vpn in set(vpns):
            entry = peek(vpn)
            if entry is not None:
                if rights is not None:
                    entry.rights = rights
                if aid is not None:
                    entry.aid = aid
                changed += 1
        if changed:
            self.stats.inc(f"{self._cache.name}.update", changed)
        return changed

    def invalidate(self, vpn: int) -> bool:
        return self._cache.invalidate(vpn)

    def invalidate_pages(self, vpns) -> int:
        """Drop every resident entry of a VPN batch in one sweep."""
        wanted = set(vpns)
        _, removed = self._cache.sweep(lambda vpn, _entry: vpn in wanted)
        return removed

    def drop(self, vpn: int) -> bool:
        """Remove one entry without accounting (scrub repair path)."""
        return self._cache.drop(vpn)

    def purge(self) -> int:
        return self._cache.purge()

    def __contains__(self, vpn: int) -> bool:
        return vpn in self._cache

    def items(self):
        """Resident ``(vpn, entry)`` pairs, for invariant checks."""
        return self._cache.items()

    def __len__(self) -> int:
        return len(self._cache)

    @property
    def occupancy(self) -> float:
        return self._cache.occupancy


class ASIDTaggedTLB:
    """Conventional TLB keyed by (ASID, VPN), combining all three roles.

    The structure the paper argues against for single address space use:
    shared pages replicate entries per domain (Section 3.1), and changing
    a page's translation requires sweeping out every domain's replica.
    """

    def __init__(self, entries: int, ways: int | None = None, *,
                 stats: Stats | None = None, name: str = "asidtlb") -> None:
        self.stats = stats if stats is not None else Stats()
        self._cache: AssocCache[tuple[int, int], CombinedEntry] = AssocCache(
            entries, ways, name=name, stats=self.stats, set_of=lambda key: key[1]
        )

    def lookup(self, asid: int, vpn: int) -> CombinedEntry | None:
        return self._cache.lookup((asid, vpn))

    def fill(self, asid: int, vpn: int, pfn: int, rights: Rights) -> CombinedEntry:
        entry = CombinedEntry(pfn=pfn, rights=rights, referenced=True)
        self._cache.fill((asid, vpn), entry)
        return entry

    def update_rights(self, asid: int, vpn: int, rights: Rights) -> bool:
        entry = self._cache.peek((asid, vpn))
        if entry is None:
            return False
        entry.rights = rights
        self.stats.inc(f"{self._cache.name}.update")
        return True

    def update_rights_pages(self, asid: int, vpns, rights: Rights) -> int:
        """Rewrite one domain's rights for a VPN batch, one probe per page.

        The conventional model's range-shootdown fast path: the batch
        still only reaches ONE domain's replicas (they are tagged with
        its ASID) — the per-domain message cost of §4.1.3 survives
        batching.  Each of the K distinct pages is probed once and LRU
        order is left alone.  Returns entries changed; ``{name}.update``
        counts them as :meth:`update_rights` would page by page.
        """
        peek = self._cache.peek
        changed = 0
        for vpn in set(vpns):
            entry = peek((asid, vpn))
            if entry is not None:
                entry.rights = rights
                changed += 1
        if changed:
            self.stats.inc(f"{self._cache.name}.update", changed)
        return changed

    def invalidate_pages(self, vpns) -> tuple[int, int]:
        """Remove every domain's replicas of a VPN batch in one sweep."""
        wanted = set(vpns)
        return self._cache.sweep(lambda key, _entry: key[1] in wanted)

    def invalidate_page(self, vpn: int) -> tuple[int, int]:
        """Remove every domain's replica of a page's translation.

        Returns ``(inspected, removed)``: the associative sweep the kernel
        must perform to keep replicated entries coherent when a mapping
        changes (Section 3.1).
        """
        return self._cache.sweep(lambda key, _: key[1] == vpn)

    def invalidate_domain(self, asid: int) -> tuple[int, int]:
        """Remove all entries belonging to one address space."""
        return self._cache.sweep(lambda key, _: key[0] == asid)

    def invalidate_domain_range(self, asid: int, vpn_lo: int, vpn_hi: int) -> tuple[int, int]:
        """Remove one domain's entries for pages in ``[vpn_lo, vpn_hi)``.

        The conventional analog of segment detach: the kernel must sweep
        out the detaching domain's combined entries for the range.
        """
        return self._cache.sweep(
            lambda key, _: key[0] == asid and vpn_lo <= key[1] < vpn_hi
        )

    def purge(self) -> int:
        return self._cache.purge()

    def drop(self, key: tuple[int, int]) -> bool:
        """Remove one ``(asid, vpn)`` entry without accounting (scrub)."""
        return self._cache.drop(key)

    def replicas(self, vpn: int) -> int:
        """How many domains currently hold an entry for this page."""
        return sum(1 for (_, entry_vpn), _ in self._cache.items() if entry_vpn == vpn)

    def items(self):
        """Resident ``((asid, vpn), entry)`` pairs, for invariant checks."""
        return self._cache.items()

    def __len__(self) -> int:
        return len(self._cache)

    @property
    def occupancy(self) -> float:
        return self._cache.occupancy
