"""Kernel virtual-memory tables for a single address space.

Because translations are global and unique in a SASOS, the kernel keeps
*one* translation table shared by all domains (Section 3.1 suggests "a
single table of translations that is shared by all domains and a separate
protection table for each domain").  :class:`GlobalTranslationTable` is
that single table; per-domain protection state lives on the
:class:`~repro.os.domain.ProtectionDomain` records, and page-group
membership for the page-group model lives in :class:`GroupTable`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.rights import Rights


@dataclass
class PageMapping:
    """Kernel state for one virtual page."""

    pfn: int | None = None
    on_disk: bool = False

    @property
    def resident(self) -> bool:
        return self.pfn is not None


class GlobalTranslationTable:
    """The single, domain-independent VPN -> PFN table of a SASOS."""

    def __init__(self) -> None:
        self._pages: dict[int, PageMapping] = {}

    def map(self, vpn: int, pfn: int) -> None:
        """Install a resident translation for a page."""
        mapping = self._pages.setdefault(vpn, PageMapping())
        mapping.pfn = pfn

    def unmap(self, vpn: int) -> int | None:
        """Remove the translation; returns the frame it occupied."""
        mapping = self._pages.get(vpn)
        if mapping is None or mapping.pfn is None:
            return None
        pfn, mapping.pfn = mapping.pfn, None
        return pfn

    def mark_on_disk(self, vpn: int, on_disk: bool = True) -> None:
        self._pages.setdefault(vpn, PageMapping()).on_disk = on_disk

    def mapping(self, vpn: int) -> PageMapping | None:
        return self._pages.get(vpn)

    def pfn_for(self, vpn: int) -> int | None:
        mapping = self._pages.get(vpn)
        return mapping.pfn if mapping else None

    #: The audit's read; this table charges no lookup either way.
    peek = pfn_for

    def is_resident(self, vpn: int) -> bool:
        mapping = self._pages.get(vpn)
        return mapping is not None and mapping.resident

    def is_known(self, vpn: int) -> bool:
        """Whether the kernel has ever created state for this page."""
        return vpn in self._pages

    def forget(self, vpn: int) -> None:
        """Drop all state for a page (segment destruction)."""
        self._pages.pop(vpn, None)

    def resident_vpns(self) -> list[int]:
        return [vpn for vpn, mapping in self._pages.items() if mapping.resident]

    def __len__(self) -> int:
        return len(self._pages)


@dataclass
class GroupTable:
    """Page-group membership: VPN -> AID, plus global per-page rights.

    In the page-group model a page has exactly one group and one rights
    field, shared by every domain that can reach the group (Section 3.2).
    Both live here; the kernel's page-group strategy keeps the hardware
    TLB coherent with this table.
    """

    _aid: dict[int, int] = field(default_factory=dict)
    _rights: dict[int, Rights] = field(default_factory=dict)

    def assign(self, vpn: int, aid: int, rights: Rights) -> None:
        self._aid[vpn] = aid
        self._rights[vpn] = rights

    def move(self, vpn: int, aid: int) -> int:
        """Reassign a page to another group; returns the old group."""
        old = self._aid[vpn]
        self._aid[vpn] = aid
        return old

    def set_rights(self, vpn: int, rights: Rights) -> None:
        if vpn not in self._aid:
            raise KeyError(f"page {vpn:#x} has no group assignment")
        self._rights[vpn] = rights

    def aid_of(self, vpn: int) -> int | None:
        return self._aid.get(vpn)

    def rights_of(self, vpn: int) -> Rights | None:
        return self._rights.get(vpn)

    def forget(self, vpn: int) -> None:
        self._aid.pop(vpn, None)
        self._rights.pop(vpn, None)

    def pages_in_group(self, aid: int) -> list[int]:
        return [vpn for vpn, group in self._aid.items() if group == aid]
