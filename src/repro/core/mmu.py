"""The three complete memory systems compared by the paper.

Each system wires a protection structure, a translation structure and a
data cache into a single reference path with one interface:

* :class:`PLBSystem` — the domain-page model (Section 3.2.1): an on-chip
  PLB checked in parallel with a virtually indexed, virtually tagged data
  cache, and a translation-only TLB off the critical path (consulted only
  on cache misses and writebacks).
* :class:`PageGroupSystem` — the page-group model (Section 3.2.2): an
  on-chip AID-tagged TLB probed on every reference, a page-group holder
  (LRU cache or 4-register PID file), and (by default) a virtually
  indexed, physically tagged data cache.
* :class:`ConventionalSystem` — the Section 3.1 baseline: an ASID-tagged
  TLB combining translation and protection, replicated per domain.

The systems know nothing about segments or page-groups policy; they pull
protection and translation mappings on miss from narrow *source*
protocols that the operating-system layer implements, and they raise
:class:`ProtectionFault` / :class:`PageFault` for the kernel to handle.
All events land in one shared :class:`~repro.sim.stats.Stats` object whose
counter names line up with the cycle-cost table in
:mod:`repro.core.costs`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Protocol

from repro.core.pagegroup import (
    PageGroupCache,
    PIDEntry,
    PIDRegisterFile,
    check_group_access,
)
from repro.core.params import MachineParams, DEFAULT_PARAMS
from repro.core.plb import ProtectionLookasideBuffer
from repro.core.rights import AccessType, Rights
from repro.hardware.cache import CacheOrg, DataCache
from repro.hardware.registers import PDIDRegister
from repro.hardware.tlb import AIDTaggedTLB, ASIDTaggedTLB, TranslationTLB
from repro.obs.tracer import NULL_TRACER
from repro.sim.stats import Stats


# --------------------------------------------------------------------- #
# Faults


class FaultReason(enum.Enum):
    """Why a reference was refused."""

    #: The domain has no protection mapping at all for the page (the
    #: segment is not attached, or the page-group is not held).
    UNATTACHED = "unattached"
    #: A mapping exists but its rights do not permit the access.
    DENIED = "denied"


class ProtectionFault(Exception):
    """A reference violated protection; delivered to the kernel.

    The message is formatted lazily in :meth:`__str__`: the exception-free
    access protocol *returns* fault objects from ``access_fast``, so
    construction sits on the reference path and must not pay for string
    formatting that only a report or a test assertion will ever read.
    """

    def __init__(
        self,
        pd_id: int,
        vaddr: int,
        access: AccessType,
        reason: FaultReason,
        rights: Rights = Rights.NONE,
    ) -> None:
        self.pd_id = pd_id
        self.vaddr = vaddr
        self.access = access
        self.reason = reason
        self.rights = rights

    def __str__(self) -> str:
        return (
            f"protection fault: domain {self.pd_id} {self.access.value} "
            f"at {self.vaddr:#x} ({self.reason.value}, "
            f"rights={self.rights.describe()})"
        )


class PageFault(Exception):
    """No resident translation for the page; the pager must supply one.

    Message formatting is deferred to :meth:`__str__` (see
    :class:`ProtectionFault`).
    """

    def __init__(self, vaddr: int, pd_id: int, access: AccessType) -> None:
        self.vaddr = vaddr
        self.pd_id = pd_id
        self.access = access

    def __str__(self) -> str:
        return (
            f"page fault at {self.vaddr:#x} "
            f"(domain {self.pd_id}, {self.access.value})"
        )


# --------------------------------------------------------------------- #
# OS-facing source protocols (implemented by the kernel's tables)


@dataclass(frozen=True)
class ProtectionInfo:
    """A protection mapping handed to the hardware on a PLB miss.

    ``level`` selects the protection-unit size (Section 4.3): 0 is one
    page; positive levels span ``2**level`` pages with a single entry.
    """

    rights: Rights
    level: int = 0


class ProtectionSource(Protocol):
    """Per-domain, per-page rights: the PLB's backing tables."""

    def rights_for(self, pd_id: int, vpn: int) -> ProtectionInfo | None:
        """The domain's rights on a page, or None when unattached."""


@dataclass(frozen=True)
class TranslationInfo:
    """A translation handed to the hardware on a TLB miss.

    ``level`` selects the translation page size (Section 4.3): 0 maps a
    single page with frame ``pfn``; level L maps the aligned
    ``2**L``-page unit containing the faulting page, whose *base* frame
    is ``pfn`` (the unit must be physically contiguous).
    """

    pfn: int
    level: int = 0


class TranslationSource(Protocol):
    """Global virtual-to-physical translations: the TLB's backing table."""

    def translation_for(self, vpn: int) -> TranslationInfo | None:
        """The resident translation covering a page, or None (-> fault)."""


class GroupSource(Protocol):
    """Page-group model tables: page membership and domain holdings."""

    def page_info(self, vpn: int) -> tuple[int, Rights, int] | None:
        """``(pfn, rights, aid)`` for a resident page, else None."""

    def domain_group_entry(self, pd_id: int, group: int) -> PIDEntry | None:
        """The domain's PID entry for ``group`` if it holds the group."""

    def domain_groups(self, pd_id: int) -> Iterable[PIDEntry]:
        """All groups the domain holds (for eager reload on switch)."""


class DomainPageSource(Protocol):
    """Conventional per-domain page tables: combined rights+translation."""

    def domain_page(self, pd_id: int, vpn: int) -> tuple[int, Rights] | None:
        """``(pfn, rights)`` for a resident, attached page.

        Returns None when the domain has no mapping; raises nothing —
        the system turns a missing *translation* into a PageFault via
        :meth:`page_resident`.
        """

    def page_resident(self, vpn: int) -> bool:
        """Whether the page has a resident frame at all."""


# --------------------------------------------------------------------- #
# Base machinery


class MemorySystem:
    """Shared state for the three systems: current domain and data cache."""

    #: Short identifier used in reports.
    model_name = "base"

    def __init__(
        self,
        *,
        params: MachineParams,
        cache_bytes: int,
        cache_ways: int,
        cache_org: CacheOrg,
        detect_hazards: bool,
        stats: Stats | None,
    ) -> None:
        self.params = params
        self._page_bits = params.page_bits
        self._page_mask = params.page_size - 1
        self.stats = stats if stats is not None else Stats()
        #: Physical address of the last completed reference, when the
        #: model ran translation for it.  None after a VIVT hit in the
        #: PLB system, where the whole point is that translation never
        #: happens (Section 3.2.1).
        self.paddr: int | None = None
        self.tracer = NULL_TRACER
        self.pdid = PDIDRegister(stats=self.stats)
        self.dcache = DataCache(
            cache_bytes,
            cache_ways,
            cache_org,
            params=params,
            detect_hazards=detect_hazards,
            stats=self.stats,
        )
        # Bind the reference path once: `access_fast` is an instance
        # attribute pointing straight at the model's `_access_fast`
        # implementation, so the untraced hot loop pays no tracing check
        # at all (and skips the per-call bound-method creation besides).
        # attach_tracer swaps in the traced wrapper.
        self.access_fast = self._access_fast

    @property
    def current_domain(self) -> int:
        return self.pdid.value

    def attach_tracer(self, tracer) -> None:
        """Route the reference path through ``tracer`` (or back off it).

        With an active, sampling tracer every reference runs inside a
        sampled ``mem.access`` span.  With
        :data:`~repro.obs.tracer.NULL_TRACER`, or a verb-level tracer
        (``sample_every=0``), the path stays unwrapped: nothing is
        checked per call, and per-reference work folds into the
        enclosing span.
        """
        self.tracer = tracer
        if not tracer.active or tracer.sample_every == 0:
            self.access_fast = self._access_fast
            return
        impl = self._access_fast
        open_span = tracer.span
        model = self.model_name

        def traced_access_fast(vaddr: int, access: AccessType):
            with open_span("mem.access", sample=True, model=model, vaddr=vaddr):
                return impl(vaddr, access)

        self.access_fast = traced_access_fast

    def access(self, vaddr: int, access: AccessType) -> None:
        """Run one reference, raising on faults.

        The raising wrapper over :meth:`access_fast`: fault objects come
        back as return values from the fast protocol and only enter the
        exception machinery here, for callers that want it.  The
        resolved physical address is left in :attr:`paddr`.
        """
        fault = self.access_fast(vaddr, access)
        if fault is not None:
            raise fault

    def _access_fast(
        self, vaddr: int, access: AccessType
    ) -> ProtectionFault | PageFault | None:
        """Run one reference, *returning* faults instead of raising.

        The exception-free access protocol: a completed reference
        returns None and builds no object (its physical address is left
        in :attr:`paddr`); a fault comes back as the return value, so the
        common case never touches exception machinery.
        """
        raise NotImplementedError

    def _complete(self, entry, vaddr: int, write: bool, asid: int) -> None:
        """Finish a reference whose on-chip TLB entry granted it.

        The page-group and conventional models translate on the critical
        path, so the physical address is known before the data-cache
        probe whatever the cache's organisation.
        """
        entry.referenced = True
        if write:
            entry.dirty = True
        paddr = (entry.pfn << self._page_bits) | (vaddr & self._page_mask)
        dcache = self.dcache
        if not dcache.access(vaddr, paddr, write=write, asid=asid):
            dcache.fill(vaddr, paddr, write=write, asid=asid)
        self.paddr = paddr

    def switch_domain(self, pd_id: int) -> None:
        raise NotImplementedError

    def read(self, vaddr: int) -> None:
        """Convenience wrapper for a load."""
        self.access(vaddr, AccessType.READ)

    def write(self, vaddr: int) -> None:
        """Convenience wrapper for a store."""
        self.access(vaddr, AccessType.WRITE)


# --------------------------------------------------------------------- #
# The PLB system (domain-page model)


class PLBSystem(MemorySystem):
    """PLB + VIVT cache + off-critical-path translation TLB (Figure 1).

    The PLB and the data cache are probed in parallel with VPN bits; the
    TLB is consulted only when the cache needs a physical address (a
    miss, or every probe of a cache that :attr:`~DataCache.translates_first`).
    Off-critical-path TLB accesses are counted separately
    (``tlb.off_chip_access``) so benchmarks can show how rarely
    translation runs.

    With ``l2_cache_bytes`` set, a physically indexed second-level cache
    sits behind the VIVT first level — "an obvious organization would
    place the TLB along with the cache controller for the second-level
    cache" (Section 3.2.1, after Wang et al.).  First-level misses fetch
    through the L2 and dirty victims write back into it, so L2 counters
    show how much of the miss traffic main memory never sees.
    """

    model_name = "plb"

    def __init__(
        self,
        protection: ProtectionSource,
        translation: TranslationSource,
        *,
        params: MachineParams = DEFAULT_PARAMS,
        plb_entries: int = 128,
        plb_ways: int | None = None,
        plb_levels: Iterable[int] = (0,),
        tlb_entries: int = 1024,
        tlb_ways: int | None = None,
        tlb_levels: tuple[int, ...] = (0,),
        cache_bytes: int = 16 * 1024,
        cache_ways: int = 1,
        cache_org: CacheOrg = CacheOrg.VIVT,
        l2_cache_bytes: int | None = None,
        l2_cache_ways: int = 4,
        detect_hazards: bool = False,
        stats: Stats | None = None,
    ) -> None:
        super().__init__(
            params=params,
            cache_bytes=cache_bytes,
            cache_ways=cache_ways,
            cache_org=cache_org,
            detect_hazards=detect_hazards,
            stats=stats,
        )
        self.protection = protection
        self.translation = translation
        self.plb = ProtectionLookasideBuffer(
            plb_entries, plb_ways, levels=plb_levels, params=params, stats=self.stats
        )
        self.tlb = TranslationTLB(
            tlb_entries, tlb_ways, levels=tlb_levels, stats=self.stats
        )
        self.l2: DataCache | None = None
        if l2_cache_bytes is not None:
            self.l2 = DataCache(
                l2_cache_bytes,
                l2_cache_ways,
                CacheOrg.PIPT,
                params=params,
                stats=self.stats,
                name="l2cache",
            )
        self._inc_refs = self.stats.counter("refs")
        self._inc_off_chip = self.stats.counter("tlb.off_chip_access")

    def _access_fast(
        self, vaddr: int, access: AccessType
    ) -> ProtectionFault | PageFault | None:
        self._inc_refs()
        pd_id = self.pdid.value

        rights = self.plb.lookup(pd_id, vaddr)
        if rights is None:
            info = self.protection.rights_for(pd_id, vaddr >> self._page_bits)
            if info is None:
                return ProtectionFault(pd_id, vaddr, access, FaultReason.UNATTACHED)
            self.plb.fill(pd_id, vaddr, info.rights, level=info.level)
            rights = info.rights
        if not rights.allows(access):
            return ProtectionFault(pd_id, vaddr, access, FaultReason.DENIED, rights)

        write = access.is_write
        dcache = self.dcache
        paddr = None
        if dcache.translates_first:
            paddr = self._translate(vaddr, write)
            if paddr is None:
                return PageFault(vaddr, pd_id, access)
        if dcache.access(vaddr, paddr, write=write, asid=pd_id):
            self.paddr = paddr
            return None
        if paddr is None:
            paddr = self._translate(vaddr, write)
            if paddr is None:
                return PageFault(vaddr, pd_id, access)
        victim_paddr_line = dcache.fill(vaddr, paddr, write=write, asid=pd_id)
        l2 = self.l2
        if l2 is not None:
            # The missing line is fetched through the L2 first; the TLB at
            # the L2 controller already resolved the address above.  The
            # fetch must probe before the victim installs: a victim
            # mapping to the same L2 set could otherwise evict the very
            # line about to be fetched.
            if not l2.access(paddr, paddr):
                l2.fill(paddr, paddr)
            if victim_paddr_line is not None:
                # The L1's dirty victim lands in the L2 (write-allocate).
                victim_paddr = victim_paddr_line << self.params.line_offset_bits
                if not l2.access(victim_paddr, victim_paddr, write=True):
                    l2.fill(victim_paddr, victim_paddr, write=True)
        self.paddr = paddr
        return None

    def _translate(self, vaddr: int, write: bool) -> int | None:
        """The off-critical-path TLB walk: the physical address of
        ``vaddr``, or None when the page has no resident translation."""
        self._inc_off_chip()
        vpn = vaddr >> self._page_bits
        entry = self.tlb.lookup(vpn)
        if entry is None:
            info = self.translation.translation_for(vpn)
            if info is None:
                return None
            entry = self.tlb.fill(vpn, info.pfn, level=info.level)
        entry.referenced = True
        if write:
            entry.dirty = True
        return (entry.pfn_for(vpn) << self._page_bits) | (vaddr & self._page_mask)

    def switch_domain(self, pd_id: int) -> None:
        """One control-register write — the whole cost (Section 4.1.4)."""
        self.stats.inc("domain_switch")
        self.pdid.write(pd_id)


# --------------------------------------------------------------------- #
# The page-group system (PA-RISC model)


class PageGroupSystem(MemorySystem):
    """AID-tagged TLB + page-group holder (+ VIPT cache), per Figure 2.

    Args:
        group_source: The kernel tables behind TLB and group-cache misses.
        group_holder: ``"cache"`` (Wilkes & Sears LRU cache, the paper's
            evaluation configuration) or ``"registers"`` (the real
            PA-RISC's four PIDs).
        group_capacity: Entries in the holder.
        eager_reload: Reload the new domain's groups on a switch instead
            of faulting them in lazily (Section 4.1.4 discusses both).
    """

    model_name = "pagegroup"

    def __init__(
        self,
        group_source: GroupSource,
        *,
        params: MachineParams = DEFAULT_PARAMS,
        tlb_entries: int = 128,
        tlb_ways: int | None = None,
        group_holder: str = "cache",
        group_capacity: int = 16,
        eager_reload: bool = False,
        cache_bytes: int = 16 * 1024,
        cache_ways: int = 1,
        cache_org: CacheOrg = CacheOrg.VIPT,
        detect_hazards: bool = False,
        stats: Stats | None = None,
    ) -> None:
        super().__init__(
            params=params,
            cache_bytes=cache_bytes,
            cache_ways=cache_ways,
            cache_org=cache_org,
            detect_hazards=detect_hazards,
            stats=stats,
        )
        self.source = group_source
        self.tlb = AIDTaggedTLB(tlb_entries, tlb_ways, stats=self.stats)
        self.eager_reload = eager_reload
        if group_holder == "cache":
            self.groups: PageGroupCache | PIDRegisterFile = PageGroupCache(
                group_capacity, stats=self.stats
            )
        elif group_holder == "registers":
            self.groups = PIDRegisterFile(group_capacity, stats=self.stats)
        else:
            raise ValueError(f"unknown group holder {group_holder!r}")
        self._inc_refs = self.stats.counter("refs")

    def _access_fast(
        self, vaddr: int, access: AccessType
    ) -> ProtectionFault | PageFault | None:
        self._inc_refs()
        pd_id = self.pdid.value
        vpn = vaddr >> self._page_bits

        entry = self.tlb.lookup(vpn)
        if entry is None:
            info = self.source.page_info(vpn)
            if info is None:
                return PageFault(vaddr, pd_id, access)
            pfn, rights, aid = info
            entry = self.tlb.fill(vpn, pfn, rights, aid)

        decision = check_group_access(entry.aid, entry.rights, access, self.groups)
        if not decision.group_hit:
            # Group miss: the kernel checks whether the domain holds the
            # group and reloads the holder, or raises a real fault.
            pid_entry = self.source.domain_group_entry(pd_id, entry.aid)
            if pid_entry is None:
                return ProtectionFault(pd_id, vaddr, access, FaultReason.UNATTACHED)
            self.stats.inc("group_reload")
            self._install_group(pid_entry)
            decision = check_group_access(entry.aid, entry.rights, access, self.groups)
            assert decision.group_hit
        if not decision.allowed:
            return ProtectionFault(
                pd_id, vaddr, access, FaultReason.DENIED, decision.effective_rights
            )

        return self._complete(entry, vaddr, access.is_write, pd_id)

    def _install_group(self, entry: PIDEntry) -> None:
        # Both holder kinds share the install/drop/clear/find surface.
        self.groups.install(entry)

    def switch_domain(self, pd_id: int) -> None:
        """Purge the group holder; optionally reload eagerly (§4.1.4)."""
        self.stats.inc("domain_switch")
        self.pdid.write(pd_id)
        self.groups.clear()
        if self.eager_reload:
            for pid_entry in self.source.domain_groups(pd_id):
                self.stats.inc("group_eager_load")
                self._install_group(pid_entry)


# --------------------------------------------------------------------- #
# The conventional system (Section 3.1 baseline)


class ConventionalSystem(MemorySystem):
    """ASID-tagged combined TLB over per-domain page tables.

    With ``asid_tagged=False`` the system instead models the purge-on-
    switch alternative the paper mentions: the whole TLB (and a virtually
    tagged cache, if configured) is flushed on every domain switch.
    """

    model_name = "conventional"

    def __init__(
        self,
        source: DomainPageSource,
        *,
        params: MachineParams = DEFAULT_PARAMS,
        tlb_entries: int = 128,
        tlb_ways: int | None = None,
        asid_tagged: bool = True,
        cache_bytes: int = 16 * 1024,
        cache_ways: int = 1,
        cache_org: CacheOrg = CacheOrg.VIPT,
        detect_hazards: bool = False,
        stats: Stats | None = None,
    ) -> None:
        super().__init__(
            params=params,
            cache_bytes=cache_bytes,
            cache_ways=cache_ways,
            cache_org=cache_org,
            detect_hazards=detect_hazards,
            stats=stats,
        )
        self.source = source
        self.asid_tagged = asid_tagged
        self.tlb = ASIDTaggedTLB(tlb_entries, tlb_ways, stats=self.stats)
        self._inc_refs = self.stats.counter("refs")

    def entry_domain(self, asid: int) -> int:
        """The domain whose TLB entries carry the tag ``asid``.

        An untagged TLB tags every entry 0 and is purged on every
        switch, so its entries are the running domain's.
        """
        return asid if self.asid_tagged else self.pdid.value

    def _access_fast(
        self, vaddr: int, access: AccessType
    ) -> ProtectionFault | PageFault | None:
        self._inc_refs()
        pd_id = self.pdid.value
        vpn = vaddr >> self._page_bits
        asid = pd_id if self.asid_tagged else 0

        entry = self.tlb.lookup(asid, vpn)
        if entry is None:
            mapping = self.source.domain_page(pd_id, vpn)
            if mapping is None:
                if self.source.page_resident(vpn):
                    return ProtectionFault(pd_id, vaddr, access, FaultReason.UNATTACHED)
                return PageFault(vaddr, pd_id, access)
            pfn, rights = mapping
            entry = self.tlb.fill(asid, vpn, pfn, rights)
        if not entry.rights.allows(access):
            return ProtectionFault(pd_id, vaddr, access, FaultReason.DENIED, entry.rights)

        return self._complete(entry, vaddr, access.is_write, asid)

    def switch_domain(self, pd_id: int) -> None:
        self.stats.inc("domain_switch")
        self.pdid.write(pd_id)
        if not self.asid_tagged:
            # Without ASIDs the TLB holds another domain's combined
            # entries; correctness demands a full purge (Section 3.1),
            # discarding translations that are in fact still valid.
            self.tlb.purge()
            if self.dcache.org is CacheOrg.VIVT and not self.dcache.asid_tagged:
                self.dcache.purge()
