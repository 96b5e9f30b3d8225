"""Periodic scrubber: audit protection caches against authority, repair drift.

Where :mod:`repro.check.invariants` *reports* stale soft state, the
scrubber *repairs* it — the background task a fault-tolerant SASOS would
run to bound the lifetime of corrupted or dropped-shootdown entries.
Every resident protection entry is compared against the authoritative
tables (attachments, page overrides, the group table, the global
translation table):

* an entry whose owner has no authority at all is dropped;
* an entry whose payload can be corrected in place (rights, AID) is
  rewritten to the authoritative value;
* an entry whose identity is wrong (stale translation, unexpressible
  superpage) is dropped and left to refault.

Repairs use the stats-free ``drop`` paths — fixing corruption must not
masquerade as kernel maintenance traffic — and are counted under
``scrub.checked`` / ``scrub.repairs`` so soak runs surface how much
divergence the scrubber absorbed.
"""

from __future__ import annotations

from repro.core.mmu import ConventionalSystem, PageGroupSystem, PLBSystem
from repro.core.rights import Rights
from repro.hardware.registers import GLOBAL_PAGE_GROUP


class Scrubber:
    """Audits one kernel's protection caches and repairs divergence."""

    def __init__(self, kernel) -> None:
        self.kernel = kernel

    def scrub(self) -> int:
        """One full pass over every CPU's protection structures.

        Returns total repairs.  On a multiprocessor the scrubber visits
        each CPU's private hardware in CPU order — a dropped shootdown
        leaves exactly one CPU stale.
        """
        kernel = self.kernel
        kernel.stats.inc("scrub.runs")
        total = 0
        with kernel.tracer.span("scrub.run"):
            for ctx in kernel.cpus:
                total += self._scrub_system(ctx.system)
        if total:
            kernel.stats.inc("scrub.repairs", total)
        return total

    def _scrub_system(self, system) -> int:
        if isinstance(system, PLBSystem):
            return self._scrub_plb(system)
        if isinstance(system, PageGroupSystem):
            return self._scrub_aid_tlb(system) + self._scrub_holder(system)
        if isinstance(system, ConventionalSystem):
            return self._scrub_asid_tlb(system)
        return 0  # pragma: no cover - no other systems exist

    # ------------------------------------------------------------------ #
    # PLB system

    def _scrub_plb(self, system: PLBSystem) -> int:
        kernel = self.kernel
        repairs = 0
        for key, entry in list(system.plb.items()):
            kernel.stats.inc("scrub.checked")
            if key.level == 0:
                info = kernel.rights_for(key.pd_id, key.unit)
                if info is None:
                    system.plb.drop(key)
                    repairs += 1
                elif entry.rights != info.rights:
                    entry.rights = info.rights
                    repairs += 1
                continue
            # Superpage / sub-page units: valid only when every covered
            # page agrees with the entry; otherwise drop and refault.
            if key.level > 0:
                vpns = range(key.unit << key.level, (key.unit + 1) << key.level)
            else:
                vpns = range(key.unit >> -key.level, (key.unit >> -key.level) + 1)
            expected: set[Rights] = set()
            for vpn in vpns:
                info = kernel.rights_for(key.pd_id, vpn)
                expected.add(info.rights if info is not None else None)
            if expected != {entry.rights}:
                system.plb.drop(key)
                repairs += 1
        repairs += self._scrub_translation_tlb(system)
        return repairs

    def _scrub_translation_tlb(self, system: PLBSystem) -> int:
        kernel = self.kernel
        repairs = 0
        for (level, unit), entry in list(system.tlb.items()):
            kernel.stats.inc("scrub.checked")
            for vpn in range(unit << level, (unit + 1) << level):
                pfn = kernel.translations.pfn_for(vpn)
                if pfn is None or entry.pfn_for(vpn) != pfn:
                    system.tlb.drop((level, unit))
                    repairs += 1
                    break
        return repairs

    # ------------------------------------------------------------------ #
    # Page-group system

    def _scrub_aid_tlb(self, system: PageGroupSystem) -> int:
        kernel = self.kernel
        repairs = 0
        for vpn, entry in list(system.tlb.items()):
            kernel.stats.inc("scrub.checked")
            pfn = kernel.translations.pfn_for(vpn)
            if pfn is None or entry.pfn != pfn:
                system.tlb.drop(vpn)
                repairs += 1
                continue
            aid = kernel.group_table.aid_of(vpn)
            rights = kernel.group_table.rights_of(vpn)
            if aid is None or rights is None:
                system.tlb.drop(vpn)
                repairs += 1
                continue
            if entry.aid != aid:
                entry.aid = aid
                repairs += 1
            if entry.rights != rights:
                entry.rights = rights
                repairs += 1
        return repairs

    def _scrub_holder(self, system: PageGroupSystem) -> int:
        kernel = self.kernel
        domain = kernel.domains.get(system.current_domain)
        repairs = 0
        for entry in list(system.groups.resident_entries()):
            if entry.group == GLOBAL_PAGE_GROUP:
                continue
            kernel.stats.inc("scrub.checked")
            held = domain.groups.get(entry.group) if domain is not None else None
            if held is None or held.write_disable != entry.write_disable:
                # Drop rather than patch: the holder reloads lazily from
                # the domain's holdings on the next group miss.
                system.groups._cache.drop(entry.group)
                repairs += 1
        return repairs

    # ------------------------------------------------------------------ #
    # Conventional system

    def _scrub_asid_tlb(self, system: ConventionalSystem) -> int:
        kernel = self.kernel
        repairs = 0
        for (asid, vpn), entry in list(system.tlb.items()):
            kernel.stats.inc("scrub.checked")
            pfn = kernel.translations.pfn_for(vpn)
            if pfn is None or entry.pfn != pfn:
                system.tlb.drop((asid, vpn))
                repairs += 1
                continue
            info = kernel.rights_for(system.entry_domain(asid), vpn)
            if info is None:
                system.tlb.drop((asid, vpn))
                repairs += 1
            elif entry.rights != info.rights:
                entry.rights = info.rights
                repairs += 1
        return repairs
