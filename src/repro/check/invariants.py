"""Structural coherence invariants over the hardware caches.

Callable mid-run against any live kernel: every check compares a cached
hardware structure (PLB, TLBs, group holder, data caches) against the
kernel tables that are its source of truth.  A clean kernel returns an
empty list; each violation is a human-readable string naming the stale
entry.

The checks are deliberately *structural*, not per-reference: e.g. the
cache invariant is not the literal "no line the current domain can't
access" (a VIVT line legitimately outlives a domain switch — protection
is enforced by the parallel PLB probe, not by flushing), but "every
resident line belongs to a resident page and names that page's current
frame", which is what unmap/page-out coherence actually requires.
"""

from __future__ import annotations

from repro.core.mmu import ConventionalSystem, PageGroupSystem, PLBSystem
from repro.core.rights import Rights
from repro.hardware.cache import DataCache
from repro.hardware.registers import GLOBAL_PAGE_GROUP


def check_invariants(kernel) -> list[str]:
    """All structural violations in ``kernel``'s hardware state.

    Every CPU's private structures are audited against the shared
    authority; on a multiprocessor each remote CPU's violations are
    prefixed ``cpuN:`` (single-CPU messages are unchanged).
    """
    problems: list[str] = []
    many = kernel.n_cpus > 1
    for ctx in kernel.cpus:
        local: list[str] = []
        _check_system(kernel, ctx.system, local)
        if many:
            problems.extend(f"cpu{ctx.cpu_id}: {text}" for text in local)
        else:
            problems.extend(local)
    return problems


def _check_system(kernel, system, problems: list[str]) -> None:
    if isinstance(system, PLBSystem):
        _check_plb(kernel, system, problems)
        _check_translation_tlb(kernel, system, problems)
        _check_dcache(kernel, system.dcache, problems)
        if system.l2 is not None:
            _check_dcache(kernel, system.l2, problems)
    elif isinstance(system, PageGroupSystem):
        _check_aid_tlb(kernel, system, problems)
        _check_group_holder(kernel, system, problems)
        _check_dcache(kernel, system.dcache, problems)
    elif isinstance(system, ConventionalSystem):
        _check_asid_tlb(kernel, system, problems)
        _check_dcache(kernel, system.dcache, problems)


def _excess(granted: Rights, allowed: Rights) -> Rights:
    return granted & ~allowed


def _plb_unit_pages(key) -> range:
    if key.level >= 0:
        lo = key.unit << key.level
        return range(lo, lo + (1 << key.level))
    return range(key.unit >> -key.level, (key.unit >> -key.level) + 1)


def _check_plb(kernel, system: PLBSystem, problems: list[str]) -> None:
    """No PLB entry may grant rights its protection source does not."""
    for key, entry in system.plb.items():
        for vpn in _plb_unit_pages(key):
            info = kernel.rights_for(key.pd_id, vpn)
            allowed = info.rights if info is not None else Rights.NONE
            excess = _excess(entry.rights, allowed)
            if excess:
                problems.append(
                    f"plb: entry (pd={key.pd_id}, unit={key.unit:#x}, "
                    f"level={key.level}) grants {entry.rights.describe()} on "
                    f"vpn {vpn:#x} but tables allow {allowed.describe()} "
                    f"(excess {excess.describe()})"
                )


def _check_translation_tlb(kernel, system: PLBSystem, problems: list[str]) -> None:
    for (level, unit), entry in system.tlb.items():
        for vpn in range(unit << level, (unit + 1) << level):
            pfn = kernel.translations.pfn_for(vpn)
            if pfn is None:
                problems.append(
                    f"tlb: entry (level={level}, unit={unit:#x}) covers "
                    f"non-resident vpn {vpn:#x}"
                )
            elif entry.pfn_for(vpn) != pfn:
                problems.append(
                    f"tlb: entry (level={level}, unit={unit:#x}) maps vpn "
                    f"{vpn:#x} to pfn {entry.pfn_for(vpn):#x}, table says {pfn:#x}"
                )


def _check_aid_tlb(kernel, system: PageGroupSystem, problems: list[str]) -> None:
    for vpn, entry in system.tlb.items():
        pfn = kernel.translations.pfn_for(vpn)
        if pfn is None:
            problems.append(f"pgtlb: entry for non-resident vpn {vpn:#x}")
        elif entry.pfn != pfn:
            problems.append(
                f"pgtlb: vpn {vpn:#x} maps to pfn {entry.pfn:#x}, "
                f"table says {pfn:#x}"
            )
        aid = kernel.group_table.aid_of(vpn)
        rights = kernel.group_table.rights_of(vpn)
        if aid is not None and entry.aid != aid:
            problems.append(
                f"pgtlb: vpn {vpn:#x} tagged aid {entry.aid}, table says {aid}"
            )
        if rights is not None and entry.rights != rights:
            problems.append(
                f"pgtlb: vpn {vpn:#x} holds rights {entry.rights.describe()}, "
                f"table says {rights.describe()}"
            )


def _check_group_holder(kernel, system: PageGroupSystem, problems: list[str]) -> None:
    """Holder entries must mirror the *current* domain's group holdings."""
    domain = kernel.domains.get(system.current_domain)
    for entry in system.groups.resident_entries():
        if entry.group == GLOBAL_PAGE_GROUP:
            continue
        held = domain.groups.get(entry.group) if domain is not None else None
        if held is None:
            problems.append(
                f"groups: holder has group {entry.group} which domain "
                f"{system.current_domain} does not hold"
            )
        elif held.write_disable != entry.write_disable:
            problems.append(
                f"groups: group {entry.group} write_disable="
                f"{entry.write_disable} in holder, {held.write_disable} in "
                f"domain {system.current_domain}"
            )


def _check_asid_tlb(kernel, system: ConventionalSystem, problems: list[str]) -> None:
    for (asid, vpn), entry in system.tlb.items():
        pfn = kernel.translations.pfn_for(vpn)
        if pfn is None:
            problems.append(
                f"asidtlb: entry (asid={asid}, vpn={vpn:#x}) for "
                f"non-resident page"
            )
        elif entry.pfn != pfn:
            problems.append(
                f"asidtlb: (asid={asid}, vpn={vpn:#x}) maps to pfn "
                f"{entry.pfn:#x}, table says {pfn:#x}"
            )
        pd_id = system.entry_domain(asid)
        info = kernel.rights_for(pd_id, vpn)
        allowed = info.rights if info is not None else Rights.NONE
        excess = _excess(entry.rights, allowed)
        if excess:
            problems.append(
                f"asidtlb: (asid={asid}, vpn={vpn:#x}) grants "
                f"{entry.rights.describe()} but domain {pd_id}'s tables allow "
                f"{allowed.describe()}"
            )


def _check_dcache(kernel, cache: DataCache, problems: list[str]) -> None:
    line_shift = kernel.params.page_bits - kernel.params.line_offset_bits
    if cache.org.virtually_tagged:
        for key, line in cache.resident_lines():
            vpn = key[-1] >> line_shift
            pfn = kernel.translations.pfn_for(vpn)
            if pfn is None:
                problems.append(
                    f"{cache.name}: holds line of non-resident vpn {vpn:#x}"
                )
            elif line.paddr_line >> line_shift != pfn:
                problems.append(
                    f"{cache.name}: line for vpn {vpn:#x} names frame "
                    f"{line.paddr_line >> line_shift:#x}, table says {pfn:#x}"
                )
    else:
        mapped = {
            kernel.translations.pfn_for(vpn)
            for vpn in kernel.translations.resident_vpns()
        }
        for key, line in cache.resident_lines():
            frame = line.paddr_line >> line_shift
            if frame not in mapped:
                problems.append(
                    f"{cache.name}: holds line of frame {frame:#x} which "
                    f"backs no resident page"
                )
