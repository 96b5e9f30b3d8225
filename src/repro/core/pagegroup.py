"""The page-group protection model (Section 3.2.2, Figure 2).

In the HP PA-RISC, every TLB entry carries an *access identifier* (AID)
naming the page-group the page belongs to, alongside the page's rights.
A reference is legal when the AID matches one of the protection domain's
page-group registers (PIDs) — or is group 0, which is global — and the
rights (possibly masked by the PID's write-disable bit) permit the access.

The real architecture provides exactly four PID registers.  Following the
paper's evaluation setup, this module also implements the Wilkes & Sears
variant: an LRU *page-group cache* replacing the register file, so a
domain can keep many groups active.  Both holders implement the same
small interface (:meth:`find`, :meth:`install`, :meth:`drop`,
:meth:`clear`) so the MMU and kernel are agnostic to which is configured
(the ABL-PGCACHE ablation swaps them).
"""

from __future__ import annotations

from typing import NamedTuple

from repro.hardware.assoc import AssocCache
from repro.hardware.registers import (
    GLOBAL_PAGE_GROUP,
    GLOBAL_PID_ENTRY,
    PIDEntry,
    PIDRegisterFile,
)
from repro.core.rights import AccessType, Rights
from repro.sim.stats import Stats

__all__ = [
    "GLOBAL_PAGE_GROUP",
    "PIDEntry",
    "PIDRegisterFile",
    "PageGroupCache",
    "AccessDecision",
    "check_group_access",
]


class PageGroupCache:
    """An LRU cache of the current domain's accessible page-groups.

    The Wilkes & Sears replacement for the PA-RISC's four PID registers:
    a hardware cache with LRU information "to help the operating system
    manage the loading of the page-group registers" (Section 3.2.2).
    Values are :class:`PIDEntry`, carrying the write-disable bit.
    """

    def __init__(
        self,
        entries: int,
        ways: int | None = None,
        *,
        stats: Stats | None = None,
        name: str = "pgcache",
    ) -> None:
        self.stats = stats if stats is not None else Stats()
        self.name = name
        self._cache: AssocCache[int, PIDEntry] = AssocCache(
            entries, ways, name=name, stats=self.stats, set_of=lambda group: group
        )
        self._inc_global_hit = self.stats.counter(f"{name}.global_hit")

    def find(self, group: int) -> PIDEntry | None:
        """The entry for ``group``; group 0 matches unconditionally."""
        if group == GLOBAL_PAGE_GROUP:
            self._inc_global_hit()
            return GLOBAL_PID_ENTRY
        return self._cache.lookup(group)

    def install(self, entry: PIDEntry) -> int | None:
        """Load a group; returns the evicted group, if any."""
        return self._cache.fill(entry.group, entry)

    def invalidate(self, group: int) -> bool:
        """Remove one group (segment detach, Table 1)."""
        return self._cache.invalidate(group)

    def drop(self, group: int) -> bool:
        """Remove one group without accounting (scrub repair path)."""
        return self._cache.drop(group)

    def clear(self) -> int:
        """Purge all groups (domain switch); returns entries removed."""
        return self._cache.purge()

    def resident_groups(self) -> list[int]:
        return [group for group, _ in self._cache.items()]

    def resident_entries(self) -> list[PIDEntry]:
        """The resident PID entries, for invariant checks (no stats)."""
        return [entry for _, entry in self._cache.items()]

    def __contains__(self, group: int) -> bool:
        return group == GLOBAL_PAGE_GROUP or self._cache.peek(group) is not None

    def __len__(self) -> int:
        return len(self._cache)

    @property
    def entries(self) -> int:
        return self._cache.entries


class AccessDecision(NamedTuple):
    """Outcome of the Figure 2 protection check.

    Attributes:
        allowed: The reference may proceed.
        group_hit: The AID matched a resident group (or was group 0).
        effective_rights: The rights after applying the PID write-disable
            bit; meaningful only when ``group_hit``.
    """

    allowed: bool
    group_hit: bool
    effective_rights: Rights = Rights.NONE


#: Every outcome of the Figure 2 check, built once: a group miss, and
#: for each effective rights value its ``(denied, allowed)`` pair.
_GROUP_MISS = AccessDecision(allowed=False, group_hit=False)
_GROUP_HIT = {
    rights: (AccessDecision(False, True, rights), AccessDecision(True, True, rights))
    for rights in map(Rights, range(Rights.RWX + 1))
}


def check_group_access(
    aid: int,
    page_rights: Rights,
    access: AccessType,
    holder: PageGroupCache | PIDRegisterFile,
) -> AccessDecision:
    """Run the PA-RISC protection check of Figure 2.

    The AID from the TLB entry is compared against the domain's page-group
    holder.  On a match, the allowed access is the page's rights field
    masked by the matching PID's write-disable bit.  A non-matching AID is
    a *group miss* — the kernel decides whether to reload the holder or
    raise a protection fault.  The decision returned is a shared,
    immutable one: the check builds no object.
    """
    entry = holder.find(aid)
    if entry is None:
        return _GROUP_MISS
    effective = page_rights.without_write() if entry.write_disable else page_rights
    return _GROUP_HIT[effective][effective.allows(access)]
