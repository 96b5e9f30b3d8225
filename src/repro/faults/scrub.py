"""The audit walk over cached protection entries, and the scrubber.

Protection caches are soft state (§3.2): every resident PLB,
translation-TLB, AID-TLB, group-holder and ASID-TLB entry must agree
with the authoritative tables (attachments, page overrides, the group
table, the global translation table, the running domain's group
holdings).  :func:`audit` walks one CPU's entries with one rule per
model and yields each entry with its findings.  Two readers share it:
:func:`repro.check.invariants.check_invariants` prints each finding's
message, and :class:`Scrubber` applies each finding's repair — drop the
entry, or rewrite its rights or AID in place.

The walk charges nothing: it reads frames through the translation
table's uncharged ``peek``.  Repairs use the stats-free ``drop`` paths
— fixing corruption must not masquerade as kernel maintenance traffic —
and are counted under ``scrub.checked`` / ``scrub.repairs`` so soak
runs surface how much divergence the scrubber absorbed.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from repro.core.rights import Rights
from repro.hardware.registers import GLOBAL_PAGE_GROUP


class Finding(NamedTuple):
    """One way a cached entry disagrees with the authoritative tables.

    ``message`` is what :func:`~repro.check.invariants.check_invariants`
    reports, or None for a silent repair.  ``field`` names the entry
    attribute the repair rewrites to ``value``; None drops the entry.
    """

    message: str | None
    field: str | None = None
    value: object = None


#: One audited entry: ``(structure, key, entry, findings)``; the repair
#: path drops by ``structure.drop(key)``.
Audited = tuple[object, object, object, list[Finding]]


def audit(kernel, system) -> Iterator[Audited]:
    """Every cached protection entry of one CPU's ``system``, with findings."""
    return _WALKS[kernel.model](kernel, system)


def _domain_rights(info, granted: Rights, rewritable: bool, describe) -> Finding:
    """The under-grant rule, for an entry its domain's tables disagree with.

    ``info`` is the domain's authority on the page (None: none at all).
    Only excess rights are reported, as ``describe(allowed, excess)``:
    granting less can cost a refault but never leak a right.  A
    ``rewritable`` entry takes the tables' rights; otherwise, or when
    the domain has no authority, the entry is dropped.
    """
    allowed = info.rights if info is not None else Rights.NONE
    excess = granted & ~allowed
    message = describe(allowed, excess) if excess else None
    if rewritable and info is not None:
        return Finding(message, "rights", allowed)
    return Finding(message)


def _plb(kernel, system) -> Iterator[Audited]:
    rights_for = kernel.rights_for
    plb = system.plb
    for key, entry in list(plb.items()):
        pd_id, unit, level = key
        rights = entry.rights
        if level >= 0:
            pages = range(unit << level, (unit + 1) << level)
        else:
            pages = (unit >> -level,)
        findings = []
        for vpn in pages:
            info = rights_for(pd_id, vpn)
            if info is None or info.rights != rights:
                # Only a one-page entry can take the page's rights; a wider
                # or narrower unit refaults at the level the kernel picks.
                findings.append(_domain_rights(
                    info, rights, level == 0,
                    lambda allowed, excess: (
                        f"plb: entry (pd={pd_id}, unit={unit:#x}, level={level}) "
                        f"grants {rights.describe()} on vpn {vpn:#x} but tables "
                        f"allow {allowed.describe()} (excess {excess.describe()})"
                    ),
                ))
        yield plb, key, entry, findings

    peek = kernel.translations.peek
    tlb = system.tlb
    for key, entry in list(tlb.items()):
        level, unit = key
        findings = []
        for vpn in range(unit << level, (unit + 1) << level):
            pfn = peek(vpn)
            if pfn is None:
                findings.append(Finding(
                    f"tlb: entry (level={level}, unit={unit:#x}) covers "
                    f"non-resident vpn {vpn:#x}"
                ))
            elif entry.pfn_for(vpn) != pfn:
                findings.append(Finding(
                    f"tlb: entry (level={level}, unit={unit:#x}) maps vpn "
                    f"{vpn:#x} to pfn {entry.pfn_for(vpn):#x}, table says {pfn:#x}"
                ))
        yield tlb, key, entry, findings


def _pagegroup(kernel, system) -> Iterator[Audited]:
    peek = kernel.translations.peek
    table = kernel.group_table
    tlb = system.tlb
    for vpn, entry in list(tlb.items()):
        findings = []
        pfn = peek(vpn)
        if pfn is None:
            findings.append(Finding(f"pgtlb: entry for non-resident vpn {vpn:#x}"))
        elif entry.pfn != pfn:
            findings.append(Finding(
                f"pgtlb: vpn {vpn:#x} maps to pfn {entry.pfn:#x}, table says {pfn:#x}"
            ))
        # The page's one rights field: any difference is reported.
        aid = table.aid_of(vpn)
        rights = table.rights_of(vpn)
        if aid is None or rights is None:
            # Silent: the group table has no value to name.
            findings.append(Finding(None))
        if aid is not None and entry.aid != aid:
            findings.append(Finding(
                f"pgtlb: vpn {vpn:#x} tagged aid {entry.aid}, table says {aid}",
                "aid", aid,
            ))
        if rights is not None and entry.rights != rights:
            findings.append(Finding(
                f"pgtlb: vpn {vpn:#x} holds rights {entry.rights.describe()}, "
                f"table says {rights.describe()}",
                "rights", rights,
            ))
        yield tlb, vpn, entry, findings

    # The holder must mirror the *running* domain's holdings; a dropped
    # group reloads lazily from them on the next group miss.
    groups = system.groups
    pd_id = system.current_domain
    domain = kernel.domains.get(pd_id)
    for entry in groups.resident_entries():
        if entry.group == GLOBAL_PAGE_GROUP:
            continue
        held = domain.groups.get(entry.group) if domain is not None else None
        findings = []
        if held is None:
            findings.append(Finding(
                f"groups: holder has group {entry.group} which domain "
                f"{pd_id} does not hold"
            ))
        elif held.write_disable != entry.write_disable:
            findings.append(Finding(
                f"groups: group {entry.group} write_disable="
                f"{entry.write_disable} in holder, {held.write_disable} in "
                f"domain {pd_id}"
            ))
        yield groups, entry.group, entry, findings


def _conventional(kernel, system) -> Iterator[Audited]:
    peek = kernel.translations.peek
    rights_for = kernel.rights_for
    tlb = system.tlb
    for key, entry in list(tlb.items()):
        asid, vpn = key
        findings = []
        pfn = peek(vpn)
        if pfn is None:
            findings.append(Finding(
                f"asidtlb: entry (asid={asid}, vpn={vpn:#x}) for non-resident page"
            ))
        elif entry.pfn != pfn:
            findings.append(Finding(
                f"asidtlb: (asid={asid}, vpn={vpn:#x}) maps to pfn "
                f"{entry.pfn:#x}, table says {pfn:#x}"
            ))
        pd_id = system.entry_domain(asid)
        info = rights_for(pd_id, vpn)
        rights = entry.rights
        if info is None or info.rights != rights:
            findings.append(_domain_rights(
                info, rights, True,
                lambda allowed, _excess: (
                    f"asidtlb: (asid={asid}, vpn={vpn:#x}) grants "
                    f"{rights.describe()} but domain {pd_id}'s tables allow "
                    f"{allowed.describe()}"
                ),
            ))
        yield tlb, key, entry, findings


_WALKS = {"plb": _plb, "pagegroup": _pagegroup, "conventional": _conventional}


class Scrubber:
    """Audits one kernel's protection caches and repairs divergence."""

    def __init__(self, kernel) -> None:
        self.kernel = kernel

    def scrub(self) -> int:
        """One full pass over every CPU's protection structures.

        Returns total repairs: one per dropped entry, one per rewritten
        field.  On a multiprocessor the scrubber visits each CPU's
        private hardware in CPU order — a dropped shootdown leaves
        exactly one CPU stale.
        """
        kernel = self.kernel
        kernel.stats.inc("scrub.runs")
        checked = 0
        repairs = 0
        with kernel.tracer.span("scrub.run"):
            for ctx in kernel.cpus:
                for structure, key, entry, findings in audit(kernel, ctx.system):
                    checked += 1
                    if not findings:
                        continue
                    if any(finding.field is None for finding in findings):
                        structure.drop(key)
                        repairs += 1
                        continue
                    for finding in findings:
                        setattr(entry, finding.field, finding.value)
                    repairs += len(findings)
            if checked:
                kernel.stats.inc("scrub.checked", checked)
        if repairs:
            kernel.stats.inc("scrub.repairs", repairs)
        return repairs
