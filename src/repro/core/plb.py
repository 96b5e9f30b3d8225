"""The Protection Lookaside Buffer (Section 3.2.1, Figure 1).

The PLB is the paper's central hardware proposal: a cache of protection
mappings on a per-domain, per-page basis.  Each entry grants one
protection domain a set of access rights on one protection unit; it
contains *no* translation information, which is what lets it pair with a
virtually indexed, virtually tagged data cache and lets the TLB fall off
the critical path.

Beyond the base design, this implementation supports the Section 4.3
extensions: protection units both larger than a translation page (one
entry spanning a whole aligned segment, cutting the duplication cost of
sharing) and smaller than a page (sub-page units, e.g. the 128-byte lock
granules the IBM 801 uses for database locking).  A protection unit at
*level* ``s`` covers ``2**s`` translation pages when ``s >= 0``, or
``2**-s``-th of a page when ``s < 0``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

from repro.core.params import MachineParams, DEFAULT_PARAMS
from repro.core.rights import Rights
from repro.hardware.assoc import AssocCache
from repro.sim.stats import Stats


class PLBKey(NamedTuple):
    """Identity of one PLB entry: (domain, protection-unit, level).

    A tuple, so hashing and equality run in C on every probe and sweep,
    and a plain ``(pd_id, unit, level)`` tuple finds the same entry:
    :meth:`ProtectionLookasideBuffer.lookup` probes with one.
    """

    pd_id: int
    unit: int
    level: int


@dataclass
class PLBEntry:
    """The payload of a PLB entry: just the access rights (Figure 1)."""

    rights: Rights


class ProtectionLookasideBuffer:
    """A set-associative, LRU cache of (PD-ID, unit) -> rights mappings.

    Args:
        entries: Total entries.
        ways: Associativity (defaults to fully associative, as in
            Figure 1).
        levels: Protection-unit levels supported, in pages-log2.  The
            default ``(0,)`` is the base design (protection unit ==
            translation page).  ``(0, 4)`` adds 16-page superpage
            protection entries; ``(-5, 0)`` adds 128-byte sub-page units
            for 4 Kbyte pages.  A lookup probes every level; a hit at any
            level is a PLB hit.
        params: Machine parameters (for unit arithmetic).
        stats: Event sink.
    """

    def __init__(
        self,
        entries: int,
        ways: int | None = None,
        *,
        levels: Iterable[int] = (0,),
        params: MachineParams = DEFAULT_PARAMS,
        stats: Stats | None = None,
        name: str = "plb",
    ) -> None:
        self.params = params
        self.name = name
        self.stats = stats if stats is not None else Stats()
        self.levels = tuple(sorted(set(levels), reverse=True))
        if not self.levels:
            raise ValueError("at least one protection-unit level is required")
        for level in self.levels:
            if level < 0 and -level > params.page_bits:
                raise ValueError(f"sub-page level {level} finer than a byte")
        # ``(level, address shift)`` per level, probed in order by lookup.
        self._shifts = tuple((level, params.page_bits + level) for level in self.levels)
        # An uncounted store: the PLB accounts hits and misses once per
        # lookup across all levels.
        self._store: AssocCache[PLBKey, PLBEntry] = AssocCache(
            entries, ways, name=None, set_of=lambda key: key[1]
        )
        # Graceful degradation (fault recovery): a disabled PLB answers
        # every lookup with a miss and refuses fills, so each reference
        # falls back to walking the authoritative protection tables.
        self._disabled = False
        self._inc_hit = self.stats.counter(f"{name}.hit")
        self._inc_miss = self.stats.counter(f"{name}.miss")
        self._inc_disabled_walk = self.stats.counter(f"{name}.disabled_walk")

    # ------------------------------------------------------------------ #
    # Unit arithmetic

    def unit_for(self, vaddr: int, level: int) -> int:
        """The protection-unit number containing ``vaddr`` at ``level``."""
        shift = self.params.page_bits + level
        if shift < 0:
            raise ValueError(f"level {level} below byte granularity")
        return vaddr >> shift

    def unit_span_pages(self, level: int) -> int:
        """How many translation pages one unit at ``level`` covers (>=1)."""
        return 1 << level if level >= 0 else 1

    # ------------------------------------------------------------------ #
    # The reference path

    def lookup(self, pd_id: int, vaddr: int) -> Rights | None:
        """Probe for the current domain's rights on ``vaddr``.

        All configured levels are probed (hardware would do so in
        parallel); a hit at any level supplies the rights.  Returns None
        on a PLB miss, in which case the protection mapping must be
        loaded from the domain's protection table.
        """
        if self._disabled:
            self._inc_disabled_walk()
            return None
        probe = self._store.probe
        for level, shift in self._shifts:
            entry = probe((pd_id, vaddr >> shift, level))
            if entry is not None:
                self._inc_hit()
                return entry.rights
        self._inc_miss()
        return None

    def fill(self, pd_id: int, vaddr: int, rights: Rights, *, level: int = 0) -> None:
        """Load a protection mapping (after a PLB miss)."""
        if level not in self.levels:
            raise ValueError(f"level {level} not configured (have {self.levels})")
        if self._disabled:
            return
        key = PLBKey(pd_id, self.unit_for(vaddr, level), level)
        self._store.fill(key, PLBEntry(rights=rights))
        self.stats.inc(f"{self.name}.fill")

    # ------------------------------------------------------------------ #
    # Kernel maintenance operations (the Table 1 verbs)

    def update_rights(self, pd_id: int, vaddr: int, rights: Rights) -> int:
        """Rewrite the resident entries covering ``vaddr`` in place.

        The cheap PLB operation Table 1 credits for per-domain permission
        changes ("simply requires updating a PLB entry").  With multiple
        configured levels a domain can hold both a superpage and a page
        entry for the same address; every one of them must change, or a
        later lookup can hit the stale sibling and grant revoked rights.
        Returns how many entries changed (0 when none was resident: the
        new rights will be faulted in lazily).
        """
        changed = 0
        for level in self.levels:
            key = PLBKey(pd_id, self.unit_for(vaddr, level), level)
            if self._store.update(key, PLBEntry(rights=rights)):
                self.stats.inc(f"{self.name}.update")
                changed += 1
        return changed

    def invalidate(self, pd_id: int, vaddr: int) -> int:
        """Remove the domain's entries covering ``vaddr`` at every level.

        Used for targeted revocations (e.g. stealing a sub-page lock unit
        from another domain) where a range sweep would overcharge.  All
        configured levels are swept — removing only the first hit would
        leave a stale entry at another level that ``lookup`` still hits.
        Returns how many entries were removed.
        """
        removed = 0
        for level in self.levels:
            key = PLBKey(pd_id, self.unit_for(vaddr, level), level)
            if self._store.invalidate(key):
                self.stats.inc(f"{self.name}.invalidate")
                removed += 1
        return removed

    def purge_domain_range(self, pd_id: int, vpn_lo: int, vpn_hi: int) -> tuple[int, int]:
        """Remove a domain's entries for pages in ``[vpn_lo, vpn_hi)``.

        This is segment detach (Table 1): "inspect each entry and
        eliminate those for the segment-domain pair affected".  Returns
        ``(inspected, removed)``.
        """
        inspected, removed = self._store.sweep(
            lambda key, _: key.pd_id == pd_id
            and self._overlaps(key, vpn_lo, vpn_hi)
        )
        self.stats.inc(f"{self.name}.sweep_inspected", inspected)
        self.stats.inc(f"{self.name}.sweep_removed", removed)
        return inspected, removed

    def sweep_domain_range(
        self,
        pd_id: int,
        vpn_lo: int,
        vpn_hi: int,
        new_rights: Rights,
    ) -> tuple[int, int]:
        """Downgrade (in place) a domain's entries within a page range.

        Models Table 1 operations phrased as "inspect each entry in the
        PLB, marking those for from-space as no access" — a sweep that
        rewrites rather than removes.  Returns ``(inspected, changed)``.
        """
        inspected = 0
        changed = 0
        for key, entry in self._store.items():
            inspected += 1
            if key.pd_id == pd_id and self._overlaps(key, vpn_lo, vpn_hi):
                entry.rights = new_rights
                changed += 1
        self.stats.inc(f"{self.name}.sweep_inspected", inspected)
        self.stats.inc(f"{self.name}.sweep_updated", changed)
        return inspected, changed

    def update_entries_for_page(
        self,
        vpn: int,
        rights: Rights,
        pd_id: int | None = None,
    ) -> tuple[int, int]:
        """Rewrite rights in place on every resident entry for a page.

        With ``pd_id`` given, only that domain's entries change; otherwise
        all domains' entries for the page are rewritten — the Table 1
        "Invalidate: set access rights to none in the PLB" operation,
        whose cost is "the number of entries changed depends on the
        number of domains that have access to the page" (Section 4.1.3).

        Superpage or sub-page entries overlapping the page cannot be
        rewritten in place (the new rights apply to one page, not the
        whole unit); those are removed and refault at page granularity.
        Returns ``(inspected, changed)`` where removed entries count as
        changed.
        """
        inspected = 0
        changed = 0
        doomed: list[PLBKey] = []
        for key, entry in self._store.items():
            inspected += 1
            if pd_id is not None and key.pd_id != pd_id:
                continue
            if not self._overlaps(key, vpn, vpn + 1):
                continue
            if key.level == 0:
                entry.rights = rights
            else:
                doomed.append(key)
            changed += 1
        for key in doomed:
            self._store.invalidate(key)
        self.stats.inc(f"{self.name}.sweep_inspected", inspected)
        self.stats.inc(f"{self.name}.sweep_updated", changed)
        return inspected, changed

    def update_entries_for_pages(
        self,
        vpns,
        rights: Rights,
        pd_id: int | None = None,
    ) -> tuple[int, int]:
        """Rewrite rights for a whole VPN batch in ONE store pass.

        The range-shootdown fast path: a batched verb over K pages
        sweeps all levels once, instead of K independent
        :meth:`update_entries_for_page` passes — the per-entry effect
        (level-0 rewritten in place, super/sub-page overlaps removed to
        refault at page granularity) is identical.  Returns
        ``(inspected, changed)``.
        """
        wanted = set(vpns)
        inspected = 0
        changed = 0
        doomed: list[PLBKey] = []
        for key, entry in self._store.items():
            inspected += 1
            if pd_id is not None and key.pd_id != pd_id:
                continue
            if key.level == 0:
                if key.unit not in wanted:
                    continue
            elif not any(self._overlaps(key, vpn, vpn + 1) for vpn in wanted):
                continue
            if key.level == 0:
                entry.rights = rights
            else:
                doomed.append(key)
            changed += 1
        for key in doomed:
            self._store.invalidate(key)
        self.stats.inc(f"{self.name}.sweep_inspected", inspected)
        self.stats.inc(f"{self.name}.sweep_updated", changed)
        return inspected, changed

    def purge_page(self, vpn: int) -> tuple[int, int]:
        """Remove every domain's entries touching one page.

        Used when a page's rights change for all domains at once.
        Returns ``(inspected, removed)``.
        """
        inspected, removed = self._store.sweep(
            lambda key, _: self._overlaps(key, vpn, vpn + 1)
        )
        self.stats.inc(f"{self.name}.sweep_inspected", inspected)
        self.stats.inc(f"{self.name}.sweep_removed", removed)
        return inspected, removed

    def purge_all(self) -> int:
        """Full PLB flush; returns entries removed."""
        removed = self._store.purge()
        self.stats.inc(f"{self.name}.purge")
        self.stats.inc(f"{self.name}.purge_removed", removed)
        return removed

    def drop(self, key: PLBKey) -> bool:
        """Remove one entry by exact key without event accounting.

        The scrubber's repair path: correcting corrupted soft state must
        not show up as a kernel maintenance operation in the stats.
        """
        return self._store.drop(key)

    # ------------------------------------------------------------------ #
    # Graceful degradation (machine-check recovery)

    def disable(self) -> None:
        """Take a flaky PLB offline: drop its contents, miss every lookup.

        Protection still works — each reference walks the authoritative
        tables — and the cost shows up as ``{name}.disabled_walk``.
        """
        self._store.purge()
        self._disabled = True
        self.stats.inc(f"{self.name}.disabled")

    def enable(self) -> None:
        """Bring the PLB back online (empty; entries refault lazily)."""
        self._disabled = False

    @property
    def disabled(self) -> bool:
        return self._disabled

    def _overlaps(self, key: PLBKey, vpn_lo: int, vpn_hi: int) -> bool:
        """Does the entry's protection unit overlap the page range?"""
        if key.level >= 0:
            unit_lo = key.unit << key.level
            unit_hi = unit_lo + (1 << key.level)
        else:
            unit_lo = key.unit >> -key.level
            unit_hi = unit_lo + 1
        return unit_lo < vpn_hi and unit_hi > vpn_lo

    # ------------------------------------------------------------------ #
    # Introspection

    def resident(self, pd_id: int, vaddr: int) -> Rights | None:
        """Rights currently cached for (domain, address), without counting."""
        for level in self.levels:
            entry = self._store.peek(PLBKey(pd_id, self.unit_for(vaddr, level), level))
            if entry is not None:
                return entry.rights
        return None

    def entries_for_domain(self, pd_id: int) -> int:
        return sum(1 for key, _ in self._store.items() if key.pd_id == pd_id)

    def entries_for_page(self, vpn: int) -> int:
        """Replication count: how many domains hold entries on this page."""
        return sum(1 for key, _ in self._store.items() if self._overlaps(key, vpn, vpn + 1))

    def items(self) -> Iterable[tuple[PLBKey, PLBEntry]]:
        return self._store.items()

    def __len__(self) -> int:
        return len(self._store)

    @property
    def occupancy(self) -> float:
        return self._store.occupancy

    @property
    def entries(self) -> int:
        return self._store.entries
