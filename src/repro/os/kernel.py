"""The single address space operating system kernel.

The kernel fronts a shared :class:`~repro.os.authority.Authority` — one
translation table shared by all domains, the segment registry, the
protection-domain records and the page-group tables — and drives one
:class:`~repro.os.smp.CpuContext` per CPU, each with its own memory
system from :mod:`repro.core.mmu` (PLB/TLB/group holder/L1).  It
implements the systems' *source* protocols (supplying protection and
translation mappings on hardware misses) and exposes the
operating-system operations whose costs the paper's Table 1 catalogues:
segment attach/detach, per-page and per-segment permission changes,
page-group manipulation, page unmapping and protection-domain switches.

A kernel keeps one :class:`~repro.sim.stats.Stats` store, ``stats``:
its verbs, the authority and every CPU's hardware charge it.  A tracer
watching it therefore sees the work of every CPU, and
:meth:`Kernel.merged_stats` is a plain snapshot of it.

Model-specific behaviour is delegated to a strategy object
(:class:`PLBOps`, :class:`PageGroupOps`, :class:`ConventionalOps`); each
strategy performs exactly the hardware-structure manipulations the paper
prescribes for its column of Table 1.  Every invalidation travels the
:class:`~repro.os.smp.ShootdownBus`: applied synchronously on the
issuing CPU (free, exactly the single-CPU behaviour) and broadcast to
remote CPUs with per-model cost accounting (§4.1.3), so the
multiprocessor consistency comparison falls directly out of the
``smp.shootdown.*`` counters.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.core.conventional import LinearPageTable
from repro.core.mmu import (
    ConventionalSystem,
    FaultReason,
    MemorySystem,
    PageFault,
    PageGroupSystem,
    PLBSystem,
    ProtectionFault,
    ProtectionInfo,
    TranslationInfo,
)
from repro.core.params import MachineParams, DEFAULT_PARAMS
from repro.core.rights import Rights
from repro.faults.errors import MachineCheck
from repro.hardware.registers import PIDEntry
from repro.obs.tracer import NULL_TRACER
from repro.os.authority import Authority
from repro.os.domain import ProtectionDomain
from repro.os.segment import VirtualSegment
from repro.os.smp import TRANSLATION, CpuContext, ShootdownBus
from repro.sim.stats import Stats

#: The memory-system models a kernel can run on.
MODELS = ("plb", "pagegroup", "conventional")

#: Machine checks tolerated per structure before it is taken offline.
MCE_DEGRADE_THRESHOLD = 3


def _flush_page(system: MemorySystem, vpn: int, pfn: int) -> None:
    """Flush one page's lines from a CPU's data caches before an unmap."""
    if system.dcache.org.virtually_tagged:
        system.dcache.flush_page(vpn)
    else:
        system.dcache.flush_frame(pfn)
    l2 = getattr(system, "l2", None)
    if l2 is not None:
        # The L2 is physically tagged: left alone, its lines would go
        # stale the moment the freed frame is recycled for another page.
        l2.flush_frame(pfn)


class SegmentationViolation(Exception):
    """A protection or page fault no handler claimed: the program dies."""


class KernelError(RuntimeError):
    """An operating-system invariant was violated by the caller."""


class Kernel:
    """A single address space OS instance over N per-CPU memory systems.

    Args:
        model: ``"plb"``, ``"pagegroup"`` or ``"conventional"``.
        n_frames: Physical memory size in page frames.
        params: Machine parameters shared with the hardware.
        system_options: Extra keyword arguments forwarded to every CPU's
            memory system constructor (PLB size, group-cache capacity,
            cache organization, ...).
        inverted_table: Back the global translation table with the
            801-style inverted page table (§3.1) instead of the plain
            map — same semantics, adds hash-probe accounting.
        stats: The kernel's one event sink; created when omitted.
            Kernel verbs, authority traffic and every CPU's hardware
            charge it.  A DSM cluster passes its one store to every
            node kernel, a rejoined node's included.
        tracer: Optional :class:`~repro.obs.tracer.Tracer` watching
            ``stats``; kernel verbs, fault dispatch and (sampled)
            references open spans on it, and a span sees the work of
            every CPU.  Defaults to the no-op tracer.
        n_cpus: Hardware contexts to build.  Each CPU gets its own
            PLB/TLB/group holder/L1; rights changes reach remote CPUs
            over the shootdown bus.  The default (1) is byte-identical
            to the pre-SMP simulator.
        n_shards: Authority shards (VPN-range home shards, see
            :class:`~repro.os.authority.Authority`).  The default (1)
            charges no shard counters.
    """

    def __init__(
        self,
        model: str = "plb",
        *,
        n_frames: int = 4096,
        params: MachineParams = DEFAULT_PARAMS,
        system_options: dict | None = None,
        inverted_table: bool = False,
        stats: Stats | None = None,
        tracer=None,
        n_cpus: int = 1,
        n_shards: int = 1,
    ) -> None:
        if model not in MODELS:
            raise ValueError(f"unknown model {model!r}; expected one of {MODELS}")
        if n_cpus < 1:
            raise ValueError(f"n_cpus must be >= 1, got {n_cpus}")
        self.model = model
        self.params = params
        self.stats = stats if stats is not None else Stats()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Shared OS state: the tables every CPU's hardware refills from.
        self.authority = Authority(
            n_frames=n_frames,
            params=params,
            stats=self.stats,
            inverted_table=inverted_table,
            n_shards=n_shards,
        )
        self.n_shards = n_shards
        # Historical attribute names alias the authority's containers
        # (same objects, mutated in place) so existing callers — and the
        # injector's authority-corruption site — are untouched.
        self.memory = self.authority.memory
        self.backing = self.authority.backing
        self.translations = self.authority.translations
        self.group_table = self.authority.group_table
        self.allocator = self.authority.allocator
        self.domains = self.authority.domains
        self.segments = self.authority.segments
        self.linear_tables = self.authority.linear_tables
        self._contiguous = self.authority.contiguous

        self._protection_handlers: list[Callable[[ProtectionFault], bool]] = []
        self._page_fault_handlers: list[Callable[[PageFault], bool]] = []
        self._rights_listeners: list[
            Callable[[ProtectionDomain | None, tuple[int, ...]], None]
        ] = []
        #: Machine-check bookkeeping: per-structure fault counts, for the
        #: degradation policy of :meth:`handle_machine_check`.
        self._mce_counts: dict[str, int] = {}
        #: Intent-journal hook: when set, multi-step verbs announce each
        #: mutation boundary by label (see :mod:`repro.faults.journal`).
        self._verb_step_hook: Callable[[str], None] | None = None

        options = dict(system_options or {})
        self.n_cpus = n_cpus
        #: Per-CPU hardware contexts, all charging ``self.stats``.
        self.cpus: list[CpuContext] = [
            CpuContext(cpu_id, self._build_system(model, options))
            for cpu_id in range(n_cpus)
        ]
        self.current_cpu = 0
        #: The *current* CPU's memory system (plain attribute: the
        #: reference path reads it every touch); rebound by set_current_cpu.
        self.system: MemorySystem = self.cpus[0].system
        #: Invalidation transport to remote CPUs (and the fault
        #: injector's shootdown interception point).
        self.bus = ShootdownBus(self)
        self.ops: ModelOps = {
            "plb": PLBOps,
            "pagegroup": PageGroupOps,
            "conventional": ConventionalOps,
        }[model](self)
        if self.tracer.active:
            for ctx in self.cpus:
                ctx.system.attach_tracer(self.tracer)

    def attach_tracer(self, tracer) -> None:
        """Start (or stop) tracing this kernel and its memory systems.

        A tracer that records references wraps every CPU's reference
        path in a ``mem.access`` span.  A verb-level tracer
        (``references=False``, as ``repro serve`` uses) records kernel
        verbs only: references stay unwrapped.
        """
        self.tracer = tracer
        for ctx in self.cpus:
            ctx.system.attach_tracer(tracer)

    def _build_system(self, model: str, options: dict) -> MemorySystem:
        stats = self.stats
        if model == "plb":
            return PLBSystem(self, self, params=self.params, stats=stats, **options)
        if model == "pagegroup":
            return PageGroupSystem(self, params=self.params, stats=stats, **options)
        return ConventionalSystem(self, params=self.params, stats=stats, **options)

    # ------------------------------------------------------------------ #
    # CPUs

    def set_current_cpu(self, cpu_id: int) -> None:
        """Run the kernel's next work on ``cpu_id``'s hardware."""
        if cpu_id == self.current_cpu:
            return
        if not 0 <= cpu_id < self.n_cpus:
            raise KernelError(f"no CPU {cpu_id} (have {self.n_cpus})")
        self.current_cpu = cpu_id
        self.system = self.cpus[cpu_id].system

    def merged_stats(self) -> Stats:
        """A snapshot of ``self.stats``, which every CPU charges.

        The name is shared with :meth:`ClusterDSM.merged_stats
        <repro.cluster.dsm.ClusterDSM.merged_stats>`, a snapshot of the
        cluster's one store, so the consistency probe, the kernel
        oracle and the ledger cost a kernel and a cluster alike.
        """
        return self.stats.snapshot()

    # ------------------------------------------------------------------ #
    # Kernel-entry accounting

    def _trap(self, label: str) -> None:
        """Charge one kernel entry (trap or protected syscall)."""
        self.stats.inc("kernel.trap")
        self.stats.inc(f"kernel.syscall.{label}")

    def _note_shards(self, vpns) -> None:
        """Charge a table mutation to the home shard(s) of ``vpns``.

        A no-op (one predictable branch) on a single-shard kernel, so
        the pinned baseline stats never move.
        """
        if self.authority.n_shards > 1:
            self.authority.note_mutation(vpns)

    def _verb_step(self, label: str) -> None:
        """Announce a mutation boundary inside a multi-step verb.

        A no-op unless an intent journal installed a hook; the hook may
        raise :class:`~repro.faults.journal.SimulatedCrash` to model a
        crash exactly between two mutations.
        """
        if self._verb_step_hook is not None:
            self._verb_step_hook(label)

    # ------------------------------------------------------------------ #
    # Hardware source protocols (miss handling)

    def segment_at(self, vpn: int) -> VirtualSegment | None:
        """The segment containing ``vpn``, if any (binary search)."""
        return self.authority.segment_at(vpn)

    def rights_for(self, pd_id: int, vpn: int) -> ProtectionInfo | None:
        """ProtectionSource: the PLB refill path."""
        domain = self.domains.get(pd_id)
        if domain is None:
            return None
        segment = self.segment_at(vpn)
        if segment is None or segment.seg_id not in domain.attachments:
            return None
        rights = domain.page_overrides.get(vpn, domain.attachments[segment.seg_id])
        level = self._protection_level(domain, segment, vpn)
        return ProtectionInfo(rights=rights, level=level)

    def _protection_level(
        self, domain: ProtectionDomain, segment: VirtualSegment, vpn: int
    ) -> int:
        """Pick the largest usable protection-unit level (Section 4.3).

        A superpage entry is usable when the whole aligned unit lies
        inside the segment and the domain has no per-page overrides
        within it, so a single entry can speak for every covered page.
        """
        system = self.system
        if not isinstance(system, PLBSystem):
            return 0
        candidates = [level for level in system.plb.levels if level > 0]
        if not candidates:
            return 0
        for level in sorted(candidates, reverse=True):
            unit_lo = (vpn >> level) << level
            unit_hi = unit_lo + (1 << level)
            if unit_lo < segment.base_vpn or unit_hi > segment.end_vpn:
                continue
            if any(unit_lo <= override < unit_hi for override in domain.page_overrides):
                continue
            return level
        return 0

    def translation_for(self, vpn: int) -> TranslationInfo | None:
        """TranslationSource: the TLB refill path.

        Segments created with ``contiguous=True`` whose frames are still
        intact are mapped with one superpage entry (Section 4.3) when
        the hardware TLB supports the matching level.
        """
        pfn = self.translations.pfn_for(vpn)
        if pfn is None:
            return None
        segment = self.segment_at(vpn)
        if segment is not None and segment.seg_id in self._contiguous:
            level = (segment.n_pages - 1).bit_length()
            system = self.system
            if (
                isinstance(system, PLBSystem)
                and level in system.tlb.levels
                and (segment.base_vpn >> level) << level == segment.base_vpn
            ):
                return TranslationInfo(pfn=self._contiguous[segment.seg_id], level=level)
        return TranslationInfo(pfn=pfn, level=0)

    def page_info(self, vpn: int) -> tuple[int, Rights, int] | None:
        """GroupSource: the AID-tagged TLB refill path."""
        pfn = self.translations.pfn_for(vpn)
        if pfn is None:
            return None
        aid = self.group_table.aid_of(vpn)
        rights = self.group_table.rights_of(vpn)
        if aid is None or rights is None:
            return None
        return (pfn, rights, aid)

    def domain_group_entry(self, pd_id: int, group: int) -> PIDEntry | None:
        """GroupSource: the page-group-cache reload path."""
        domain = self.domains.get(pd_id)
        return domain.groups.get(group) if domain else None

    def domain_groups(self, pd_id: int) -> Iterable[PIDEntry]:
        """GroupSource: eager reload on a domain switch."""
        domain = self.domains.get(pd_id)
        return list(domain.groups.values()) if domain else []

    def domain_page(self, pd_id: int, vpn: int) -> tuple[int, Rights] | None:
        """DomainPageSource: the conventional TLB refill path."""
        info = self.rights_for(pd_id, vpn)
        if info is None:
            return None
        pfn = self.translations.pfn_for(vpn)
        if pfn is None:
            return None
        return (pfn, info.rights)

    def page_resident(self, vpn: int) -> bool:
        return self.translations.is_resident(vpn)

    # ------------------------------------------------------------------ #
    # Domains and segments

    def create_domain(self, name: str) -> ProtectionDomain:
        """Create an (initially empty) protection domain."""
        self._trap("create_domain")
        domain = ProtectionDomain(pd_id=self.authority.new_pd_id(), name=name)
        self.domains[domain.pd_id] = domain
        if self.model == "conventional":
            self.linear_tables[domain.pd_id] = LinearPageTable(self.params)
        return domain

    def create_segment(
        self,
        name: str,
        n_pages: int,
        *,
        group_rights: Rights = Rights.RW,
        populate: bool = True,
        base_vpn: int | None = None,
        contiguous: bool = False,
    ) -> VirtualSegment:
        """Create a virtual segment in the global address space.

        ``group_rights`` is the page-group model's per-page rights field,
        installed for every page of the new segment's group.  With
        ``populate`` the segment's pages get frames immediately;
        otherwise they are demand-zero.  ``base_vpn`` pins the segment to
        an agreed global address (distributed SASOS nodes must agree on
        shared-segment placement).  ``contiguous`` backs the segment with
        physically contiguous frames so one superpage translation can
        cover it (Section 4.3; requires a power-of-two page count and
        implies ``populate``).
        """
        self._trap("create_segment")
        if contiguous:
            if n_pages & (n_pages - 1):
                raise KernelError("contiguous segments need a power-of-two size")
            populate = True
        if base_vpn is None:
            base = self.allocator.allocate(n_pages)
        else:
            base = self.allocator.reserve(base_vpn, n_pages)
        aid = self.authority.new_aid()
        segment = VirtualSegment(
            seg_id=self.authority.new_seg_id(),
            name=name,
            base_vpn=base,
            n_pages=n_pages,
            aid=aid,
        )
        self.authority.register_segment(segment)
        self._note_shards(range(segment.base_vpn, segment.end_vpn))
        if contiguous:
            frames = self.memory.allocate_contiguous(n_pages)
            self._contiguous[segment.seg_id] = frames[0].pfn
            for vpn, frame in zip(segment.vpns(), frames):
                frame.vpn = vpn
                self.group_table.assign(vpn, aid, group_rights)
                self.translations.map(vpn, frame.pfn)
                self.ops.on_populate(vpn, frame.pfn)
            return segment
        for vpn in segment.vpns():
            self.group_table.assign(vpn, aid, group_rights)
            if populate:
                self.populate_page(vpn)
        return segment

    def create_page_group(self) -> int:
        """Allocate a fresh page-group identifier (page-group model)."""
        return self.authority.new_aid()

    def destroy_segment(self, segment: VirtualSegment) -> None:
        """Destroy a segment: detach everyone, free pages, forget state.

        The virtual addresses are *not* recycled — in a single address
        space a name, once used, stays retired (dangling pointers into
        the dead segment fault forever instead of aliasing new data).
        """
        self._trap("destroy_segment")
        if segment.seg_id not in self.segments:
            raise KernelError(f"{segment.name} is not a live segment")
        self._note_shards(range(segment.base_vpn, segment.end_vpn))
        for domain in self.attached_domains(segment):
            self.ops.detach(domain, segment)
        resident = [
            vpn for vpn in segment.vpns() if self.translations.is_resident(vpn)
        ]
        if resident:
            # One batched translation shootdown for the whole segment
            # instead of one unmap trap + broadcast per resident page.
            self.free_pages(resident)
        for vpn in segment.vpns():
            self.translations.forget(vpn)
            self.group_table.forget(vpn)
            self.backing.discard(vpn)
        self.authority.forget_segment(segment)

    # ------------------------------------------------------------------ #
    # The Table 1 verbs (model-dispatched)

    def attach(self, domain: ProtectionDomain, segment: VirtualSegment, rights: Rights) -> None:
        """Attach a segment to a domain with the given rights."""
        self._trap("attach")
        if domain.is_attached(segment.seg_id):
            raise KernelError(f"{domain.name} already attached to {segment.name}")
        self._note_shards(range(segment.base_vpn, segment.end_vpn))
        with self.tracer.span("kernel.attach", pd=domain.pd_id, seg=segment.seg_id):
            self.ops.attach(domain, segment, rights)

    def detach(self, domain: ProtectionDomain, segment: VirtualSegment) -> None:
        """Detach a segment, revoking the domain's access."""
        self._trap("detach")
        if not domain.is_attached(segment.seg_id):
            raise KernelError(f"{domain.name} is not attached to {segment.name}")
        self._note_shards(range(segment.base_vpn, segment.end_vpn))
        with self.tracer.span("kernel.detach", pd=domain.pd_id, seg=segment.seg_id):
            self.ops.detach(domain, segment)

    def set_page_rights(self, domain: ProtectionDomain, vpn: int, rights: Rights) -> None:
        """Change one domain's rights on one page (others unaffected)."""
        self.set_pages_rights(domain, (vpn,), rights)

    def set_pages_rights(self, domain: ProtectionDomain, vpns, rights: Rights) -> None:
        """Change one domain's rights on a page batch (range verb).

        One kernel entry and one range shootdown per remote CPU for the
        whole VPN set.  This is the verb a DSM range invalidation rides
        on an SMP node — an M-CPU node pays 1 batched IPI per remote CPU
        instead of K×M per-page messages.  Called with one page it *is*
        :meth:`set_page_rights`: same trap, span and bus labels.
        """
        vpns = tuple(vpns)
        if not vpns:
            return
        label = "set_page_rights" if len(vpns) == 1 else "set_pages_rights"
        self._trap(label)
        for vpn in vpns:
            self._require_attached(domain, vpn)
        self._note_shards(vpns)
        with self._range_span(
            vpns, "kernel.set_page_rights", "kernel.set_pages_rights", pd=domain.pd_id
        ):
            self.ops.set_pages_rights(domain, vpns, rights, label)
        if self._rights_listeners:
            for listener in self._rights_listeners:
                listener(domain, vpns)

    def set_rights_all_domains(self, vpn: int, rights: Rights) -> None:
        """Change every attached domain's rights on one page."""
        self.set_pages_rights_all_domains((vpn,), rights)

    def set_pages_rights_all_domains(self, vpns, rights: Rights) -> None:
        """Change every attached domain's rights on a page batch.

        One kernel entry and one range shootdown per target CPU for the
        whole VPN set (K messages collapse to 1 on the SASOS models; the
        conventional model still pays one message per sharing domain —
        the §4.1.3 ordering, now per verb instead of per page).  Called
        with one page it *is* :meth:`set_rights_all_domains`.
        """
        vpns = tuple(vpns)
        if not vpns:
            return
        self._trap("set_rights_all")
        self._note_shards(vpns)
        with self._range_span(
            vpns, "kernel.set_rights_all", "kernel.set_rights_all_pages"
        ):
            self.ops.set_rights_all_pages(vpns, rights)
        if self._rights_listeners:
            for listener in self._rights_listeners:
                listener(None, vpns)

    def set_segment_rights(
        self, domain: ProtectionDomain, segment: VirtualSegment, rights: Rights
    ) -> None:
        """Change one domain's rights uniformly over a whole segment."""
        self._trap("set_segment_rights")
        if not domain.is_attached(segment.seg_id):
            raise KernelError(f"{domain.name} is not attached to {segment.name}")
        self._note_shards(range(segment.base_vpn, segment.end_vpn))
        with self.tracer.span(
            "kernel.set_segment_rights", pd=domain.pd_id, seg=segment.seg_id
        ):
            self.ops.set_segment_rights(domain, segment, rights)

    def switch_to(self, domain: ProtectionDomain) -> None:
        """Protection-domain switch (Section 4.1.4)."""
        self._trap("switch")
        with self.tracer.span("kernel.switch", pd=domain.pd_id):
            self.system.switch_domain(domain.pd_id)

    def _range_span(self, vpns: tuple[int, ...], one: str, many: str, **attrs):
        """A range verb's span: a one-page call opens the single-page
        verb's span (``vpn=``), a batch the range span (``pages=``)."""
        if len(vpns) == 1:
            return self.tracer.span(one, **attrs, vpn=vpns[0])
        return self.tracer.span(many, **attrs, pages=len(vpns))

    def _require_attached(self, domain: ProtectionDomain, vpn: int) -> VirtualSegment:
        segment = self.segment_at(vpn)
        if segment is None:
            raise KernelError(f"page {vpn:#x} is not in any segment")
        if not domain.is_attached(segment.seg_id):
            raise KernelError(f"{domain.name} is not attached to {segment.name}")
        return segment

    # ------------------------------------------------------------------ #
    # Page-group primitives (page-group model policies build on these)

    def _require_pagegroup(self) -> PageGroupSystem:
        if not isinstance(self.system, PageGroupSystem):
            raise KernelError("operation requires the page-group model")
        return self.system

    def grant_group(
        self, domain: ProtectionDomain, aid: int, *, write_disable: bool = False
    ) -> None:
        """Give a domain access to a page-group (one PID-table update).

        A fresh grant is lazy across CPUs: a remote CPU running the
        domain picks the group up on its next group miss.  Changing the
        write-disable bit of a group the domain already holds reaches
        every CPU running it (see :meth:`PageGroupOps.grant`).
        """
        self._trap("grant_group")
        self._require_pagegroup()
        self.ops.grant(domain, aid, write_disable=write_disable, verb="grant_group")

    def revoke_group(self, domain: ProtectionDomain, aid: int) -> None:
        """Remove a domain's access to a page-group.

        Revocation must reach every CPU currently running the domain:
        their group holders cache the revoked membership.
        """
        self._trap("revoke_group")
        self._require_pagegroup()
        domain.revoke_group(aid)
        self._verb_step("revoked")
        self.ops.drop_group("revoke_group", domain, aid)

    def move_page_to_group(self, vpn: int, aid: int, *, rights: Rights | None = None) -> int:
        """Reassign a page to another group; updates the TLB entry in place.

        Returns the page's previous group.  The paper's transactional and
        paging recipes are built from this verb ("move this page to that
        page group", Table 1).
        """
        return self.move_pages_to_group((vpn,), aid, rights=rights)[vpn]

    def set_page_rights_global(self, vpn: int, rights: Rights) -> None:
        """Rewrite a page's global rights field (page-group model)."""
        self.set_pages_rights_global((vpn,), rights)

    def move_pages_to_group(
        self, vpns, aid: int, *, rights: Rights | None = None
    ) -> dict[int, int]:
        """Reassign a page batch to another group with ONE range shootdown.

        The K-page group verb: where a loop of :meth:`move_page_to_group`
        costs K traps and K×(N−1) bus messages, this costs one trap and
        one message per remote CPU carrying the whole VPN set.  Called
        with one page it *is* :meth:`move_page_to_group`.  Returns
        ``{vpn: previous aid}``.
        """
        vpns = tuple(vpns)
        if not vpns:
            return {}
        self._trap("move_page" if len(vpns) == 1 else "move_pages")
        self._require_pagegroup()
        self._note_shards(vpns)
        old = {vpn: self.group_table.move(vpn, aid) for vpn in vpns}
        self._verb_step("moved")
        if rights is not None:
            for vpn in vpns:
                self.group_table.set_rights(vpn, rights)
            self._verb_step("rights_set")
        self.bus.shootdown_range(
            "move_page",
            vpns,
            lambda pages: lambda system: system.tlb.update_pages(
                pages, rights=rights, aid=aid
            ),
        )
        return old

    def set_pages_rights_global(self, vpns, rights: Rights) -> None:
        """Rewrite a page batch's global rights (page-group model).

        The page-group model's cheap path: "the change is easily made in
        a single TLB entry" when it applies to all domains (§4.1.2).
        The group table is updated per page, and every remote CPU sees
        one message that rewrites the batch's resident entries, one
        probe per page.
        """
        vpns = tuple(vpns)
        if not vpns:
            return
        self._trap("set_page_rights_global")
        self._require_pagegroup()
        self._note_shards(vpns)
        for vpn in vpns:
            self.group_table.set_rights(vpn, rights)
        self.bus.shootdown_range(
            "set_rights_global",
            vpns,
            lambda pages: lambda system: system.tlb.update_pages(pages, rights=rights),
        )

    # ------------------------------------------------------------------ #
    # Physical memory management

    def populate_page(self, vpn: int) -> int:
        """Allocate a frame and install the (unique) translation."""
        if self.translations.is_resident(vpn):
            raise KernelError(f"page {vpn:#x} already resident")
        if self.segment_at(vpn) is None:
            # Guards against resurrection of destroyed segments (e.g. a
            # stale pager record paging a dead address back in).
            raise KernelError(f"page {vpn:#x} is not in any live segment")
        self._note_shards((vpn,))
        frame = self.memory.allocate(vpn)
        self.translations.map(vpn, frame.pfn)
        self.ops.on_populate(vpn, frame.pfn)
        return frame.pfn

    def unmap_page(self, vpn: int, *, flush_cache: bool = True) -> int:
        """Remove a page's translation; returns the freed frame number."""
        return self.unmap_pages((vpn,), flush_cache=flush_cache)[vpn]

    def free_page(self, vpn: int, *, flush_cache: bool = True) -> None:
        """Unmap a page and return its frame to the allocator."""
        self.free_pages((vpn,), flush_cache=flush_cache)

    def unmap_pages(self, vpns, *, flush_cache: bool = True) -> dict[int, int]:
        """Remove a page batch's translations (Section 4.1.3's two steps).

        Flushes each page's lines from the data cache (one operation per
        line), removes the TLB entry (model-specific), and clears the
        translation.  Protection state is untouched: on the PLB system
        "no maintenance of the PLB is required" — stale entries drain by
        replacement, and any touch faults on the missing translation.
        On a multiprocessor the flush + TLB invalidate reaches every
        remote CPU as ONE *translation* shootdown for the batch — the
        one message class the fault injector may never drop.  Called
        with one page it *is* :meth:`unmap_page`, whose remote CPUs
        probe for the page instead of sweeping.  Returns ``{vpn: pfn}``
        for the freed frames (still allocated; the caller releases or
        recycles them).
        """
        vpns = tuple(vpns)
        if not vpns:
            return {}
        self._trap("unmap_page" if len(vpns) == 1 else "unmap_pages")
        frames: dict[int, int] = {}
        for vpn in vpns:
            pfn = self.translations.pfn_for(vpn)
            if pfn is None:
                raise KernelError(f"page {vpn:#x} is not resident")
            frames[vpn] = pfn
        self._note_shards(vpns)
        with self._range_span(vpns, "kernel.unmap_page", "kernel.unmap_pages"):
            for vpn, pfn in frames.items():
                segment = self.segment_at(vpn)
                if segment is not None and segment.seg_id in self._contiguous:
                    # Breaking any page of a contiguous segment demotes the
                    # whole segment back to per-page translations.
                    del self._contiguous[segment.seg_id]
                if flush_cache:
                    _flush_page(self.system, vpn, pfn)
                self.ops.invalidate_translation(vpn)
            if self.n_cpus > 1:
                ops = self.ops

                def remote_unmap(pages):
                    def action(system):
                        if flush_cache:
                            for vpn in pages:
                                _flush_page(system, vpn, frames[vpn])
                        if len(pages) == 1:
                            return ops.invalidate_translation_on(system, pages[0])
                        return ops.invalidate_translations_on(system, pages)

                    return action

                self.bus.shootdown_range(
                    "unmap_page",
                    vpns,
                    remote_unmap,
                    kind=TRANSLATION,
                    include_local=False,
                )
            for vpn in frames:
                self.ops.on_unmap(vpn)
                self.translations.unmap(vpn)
        return frames

    def free_pages(self, vpns, *, flush_cache: bool = True) -> None:
        """Unmap a page batch and return the frames to the allocator."""
        for pfn in self.unmap_pages(vpns, flush_cache=flush_cache).values():
            self.memory.release(pfn)

    # ------------------------------------------------------------------ #
    # Fault handling

    def add_protection_handler(self, handler: Callable[[ProtectionFault], bool]) -> None:
        """Register a protection-fault handler (most recent tried first).

        Handlers return True when they resolved the fault (the faulting
        access will be retried) and False to decline it.
        """
        self._protection_handlers.append(handler)

    def add_page_fault_handler(self, handler: Callable[[PageFault], bool]) -> None:
        """Register a page-fault handler ahead of the default pager path."""
        self._page_fault_handlers.append(handler)

    def add_rights_listener(
        self, listener: Callable[[ProtectionDomain | None, tuple[int, ...]], None]
    ) -> None:
        """Register a callback told after a per-page rights verb.

        ``listener(domain, vpns)`` runs after :meth:`set_pages_rights`
        (``domain`` is the one changed) and
        :meth:`set_pages_rights_all_domains` (``domain`` is None).  The
        user-level pager listens so that page-in keeps a rights change
        made while the page was out.  A kernel without listeners pays
        one empty-list test per verb.
        """
        self._rights_listeners.append(listener)

    def handle_protection_fault(self, fault: ProtectionFault) -> None:
        """Deliver a protection fault; raises SegmentationViolation if unclaimed."""
        self._trap("protection_fault")
        self.stats.inc("kernel.fault.protection")
        self.stats.inc(f"kernel.fault.protection.{fault.reason.value}")
        with self.tracer.span(
            "kernel.fault.protection",
            pd=fault.pd_id,
            vpn=self.params.vpn(fault.vaddr),
            reason=fault.reason.value,
        ):
            for handler in reversed(self._protection_handlers):
                if handler(fault):
                    return
        raise SegmentationViolation(str(fault))

    def handle_page_fault(self, fault: PageFault) -> None:
        """Deliver a page fault: handlers first, then demand-zero fill."""
        self._trap("page_fault")
        self.stats.inc("kernel.fault.page")
        vpn = self.params.vpn(fault.vaddr)
        with self.tracer.span("kernel.fault.page", pd=fault.pd_id, vpn=vpn):
            for handler in reversed(self._page_fault_handlers):
                if handler(fault):
                    return
            mapping = self.translations.mapping(vpn)
            if mapping is not None and mapping.on_disk:
                raise SegmentationViolation(
                    f"page {vpn:#x} is on backing store but no pager is registered"
                )
            if self.segment_at(vpn) is None:
                raise SegmentationViolation(str(fault))
            # Demand-zero: the page belongs to a segment but has no frame.
            self.populate_page(vpn)

    def handle_machine_check(self, mc: MachineCheck) -> None:
        """Recover from corruption reported in a protection structure.

        The paper's load-bearing property is that every protection cache
        is *soft state* rebuildable from the authoritative tables
        (Section 3.2); this handler makes that executable: flush the
        suspect structure and let entries refault from authority.  A
        structure that keeps machine-checking (``MCE_DEGRADE_THRESHOLD``
        strikes) is taken offline entirely — the PLB system can run with
        a disabled PLB or TLB by walking the tables on every reference,
        at a cost visible in the ``*.disabled_walk`` counters.

        Machine checks are CPU-local: the *current* CPU's structures are
        degraded and rebuilt; other CPUs' caches were never suspect.
        """
        self._trap("machine_check")
        self.stats.inc("kernel.fault.machine_check")
        self.stats.inc(f"kernel.fault.machine_check.{mc.structure}")
        with self.tracer.span(
            "kernel.fault.machine_check", structure=mc.structure, pd=mc.pd_id
        ):
            count = self._mce_counts.get(mc.structure, 0) + 1
            self._mce_counts[mc.structure] = count
            if count >= MCE_DEGRADE_THRESHOLD and self.model == "plb":
                target = (
                    self.system.plb if mc.structure == "plb" else self.system.tlb
                )
                if not target.disabled:
                    target.disable()
                    self.stats.inc(f"kernel.degraded.{mc.structure}")
            self.rebuild_protection_state(mc.pd_id)
        self.stats.inc("faults.recovered")

    def rebuild_protection_state(self, pd_id: int | None = None) -> None:
        """Flush and rebuild protection soft state from authority.

        With ``pd_id`` the rebuild is scoped to one domain where the
        model allows it; otherwise every cached protection mapping is
        discarded and refaults lazily from the attachment tables.  The
        rebuild is local to the current CPU — soft state elsewhere was
        never corrupted, and refaults from the same authority anyway.
        """
        self.stats.inc("kernel.rebuild_protection")
        with self.tracer.span("kernel.rebuild_protection", pd=pd_id):
            self.ops.rebuild_protection(pd_id)

    # ------------------------------------------------------------------ #
    # Introspection

    def attached_domains(self, segment: VirtualSegment) -> list[ProtectionDomain]:
        return self.authority.attached_domains(segment)


# --------------------------------------------------------------------- #
# Model strategies


class ModelOps:
    """Model-specific implementations of the Table 1 verbs.

    Hardware invalidations are expressed as *actions* — callables taking
    the target CPU's memory system and returning the entries touched —
    and routed through the kernel's :class:`~repro.os.smp.ShootdownBus`,
    which applies them locally and broadcasts them to remote CPUs.
    """

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel

    def attach(self, domain: ProtectionDomain, segment: VirtualSegment, rights: Rights) -> None:
        raise NotImplementedError

    def detach(self, domain: ProtectionDomain, segment: VirtualSegment) -> None:
        raise NotImplementedError

    def set_pages_rights(
        self, domain: ProtectionDomain, vpns: tuple[int, ...], rights: Rights, verb: str
    ) -> None:
        """One domain's rights change over a VPN set; ``verb`` labels
        its bus messages (the kernel verb's trap label)."""
        raise NotImplementedError

    def set_rights_all_pages(self, vpns: tuple[int, ...], rights: Rights) -> None:
        """Every attached domain's rights change over a VPN set."""
        raise NotImplementedError

    def set_segment_rights(
        self, domain: ProtectionDomain, segment: VirtualSegment, rights: Rights
    ) -> None:
        raise NotImplementedError

    def invalidate_translation(self, vpn: int) -> None:
        """Drop the local CPU's translation for ``vpn``."""
        self.invalidate_translation_on(self.kernel.system, vpn)

    def invalidate_translation_on(self, system: MemorySystem, vpn: int) -> int:
        """Drop one CPU's translation for ``vpn``; returns entries gone."""
        raise NotImplementedError

    def invalidate_translations_on(self, system: MemorySystem, vpns) -> int:
        """Drop one CPU's translations for a VPN batch in one sweep."""
        raise NotImplementedError

    def rebuild_protection(self, pd_id: int | None = None) -> None:
        """Discard cached protection state; rebuild what cannot refault."""
        raise NotImplementedError

    def on_populate(self, vpn: int, pfn: int) -> None:
        """Hook: a page just became resident."""

    def on_unmap(self, vpn: int) -> None:
        """Hook: a page's translation was just removed."""


class PLBOps(ModelOps):
    """Domain-page model: the PLB column of Table 1."""

    @property
    def system(self) -> PLBSystem:
        system = self.kernel.system
        assert isinstance(system, PLBSystem)
        return system

    def attach(self, domain: ProtectionDomain, segment: VirtualSegment, rights: Rights) -> None:
        # "The operating system simply marks the segment as accessible
        # by the protection domain; no hardware structures need to be
        # manipulated" — entries fault in lazily (Table 1), on every CPU.
        domain.attachments[segment.seg_id] = rights

    def detach(self, domain: ProtectionDomain, segment: VirtualSegment) -> None:
        # "Purge the PLB or inspect each entry and eliminate those for
        # the segment-domain pair affected" (Table 1) — on each CPU.
        del domain.attachments[segment.seg_id]
        domain.clear_overrides_in(segment.base_vpn, segment.end_vpn)
        self.kernel._verb_step("detached")
        pd_id, lo, hi = domain.pd_id, segment.base_vpn, segment.end_vpn
        self.kernel.bus.shootdown(
            "detach", lambda system: system.plb.purge_domain_range(pd_id, lo, hi)[1]
        )

    def set_pages_rights(
        self, domain: ProtectionDomain, vpns: tuple[int, ...], rights: Rights, verb: str
    ) -> None:
        # "Changing a domain's access rights to a page simply requires
        # updating a PLB entry" (§4.1.2) — one entry per page on each
        # CPU, and one message per remote CPU for the whole batch.
        for vpn in vpns:
            domain.page_overrides[vpn] = rights
        pd_id = domain.pd_id
        vaddr = self.kernel.params.vaddr

        def factory(pages):
            addrs = [vaddr(vpn) for vpn in pages]

            def action(system):
                plb = system.plb
                touched = 0
                if plb.levels == (0,):
                    for addr in addrs:
                        touched += plb.update_rights(pd_id, addr, rights)
                elif min(plb.levels) >= 0:
                    # A superpage entry covering a page spoke for the old
                    # uniform rights and cannot express the exception;
                    # drop the domain's covering entries at every level
                    # with indexed probes, new rights fault in lazily.
                    for addr in addrs:
                        touched += plb.invalidate(pd_id, addr)
                else:
                    # Sub-page units: many units lie inside one page,
                    # beyond the reach of a single indexed probe — sweep
                    # each page.
                    for vpn in pages:
                        touched += plb.purge_domain_range(pd_id, vpn, vpn + 1)[1]
                return touched

            return action

        self.kernel.bus.shootdown_range(verb, vpns, factory)

    def set_rights_all_pages(self, vpns: tuple[int, ...], rights: Rights) -> None:
        # One PLB entry per domain with access must change (§4.1.3: "the
        # number of entries changed depends on the number of domains
        # that have access to the page") — but only *one* message per
        # CPU: one sweep rewrites every cached entry for the batch.
        kernel = self.kernel
        for vpn in vpns:
            segment = kernel.segment_at(vpn)
            if segment is not None:
                for domain in kernel.attached_domains(segment):
                    domain.page_overrides[vpn] = rights
        kernel.bus.shootdown_range(
            "set_rights_all",
            vpns,
            lambda pages: lambda system: system.plb.update_entries_for_pages(
                pages, rights
            )[1],
        )

    def set_segment_rights(
        self, domain: ProtectionDomain, segment: VirtualSegment, rights: Rights
    ) -> None:
        # Uniform change: rewrite the attachment, drop per-page
        # exceptions, and sweep-update the domain's resident entries.
        domain.attachments[segment.seg_id] = rights
        domain.clear_overrides_in(segment.base_vpn, segment.end_vpn)
        pd_id, lo, hi = domain.pd_id, segment.base_vpn, segment.end_vpn
        self.kernel.bus.shootdown(
            "set_segment_rights",
            lambda system: system.plb.sweep_domain_range(pd_id, lo, hi, rights)[1],
        )

    def invalidate_translation_on(self, system: PLBSystem, vpn: int) -> int:
        # Only the translation dies; the PLB needs no maintenance
        # (§4.1.3).
        return int(system.tlb.invalidate(vpn))

    def invalidate_translations_on(self, system: PLBSystem, vpns) -> int:
        # One associative pass over the translation TLB for the batch.
        return system.tlb.invalidate_pages(vpns)

    def rebuild_protection(self, pd_id: int | None = None) -> None:
        # Every PLB entry refaults from the attachment tables, so the
        # cheapest correct recovery is a flush; the TLB likewise refills
        # from the global translation table.
        if pd_id is None:
            self.system.plb.purge_all()
        else:
            self.system.plb.purge_domain_range(pd_id, 0, 1 << 52)
        self.system.tlb.purge()


class PageGroupOps(ModelOps):
    """Page-group model: the PA-RISC column of Table 1."""

    def __init__(self, kernel: Kernel) -> None:
        super().__init__(kernel)
        #: Domain-private groups created on demand for per-domain page
        #: rights (the "two additional page-groups" of §4.1.2).
        self._private_groups: dict[int, int] = {}

    @property
    def system(self) -> PageGroupSystem:
        system = self.kernel.system
        assert isinstance(system, PageGroupSystem)
        return system

    def attach(self, domain: ProtectionDomain, segment: VirtualSegment, rights: Rights) -> None:
        # "Merely adds the page-group representing the segment to the set
        # of groups accessible to the current domain, possibly adding an
        # entry for it in the page-group cache" (Table 1).  A read-only
        # attachment is expressed with the PID write-disable bit.
        # Grants are lazy across CPUs: remote holders reload on miss.
        domain.attachments[segment.seg_id] = rights
        if rights == Rights.NONE:
            return
        self.kernel._verb_step("attached")
        entry = domain.grant_group(segment.aid, write_disable=not rights & Rights.WRITE)
        self.kernel._verb_step("granted")
        if self.kernel.system.current_domain == domain.pd_id:
            self.system.groups.install(entry)

    def detach(self, domain: ProtectionDomain, segment: VirtualSegment) -> None:
        # "Remove the appropriate page-group identifier from the set of
        # page-groups accessible to the current domain, and purge it
        # from the page-group cache" (Table 1) — on every CPU currently
        # running the domain.
        del domain.attachments[segment.seg_id]
        self.kernel._verb_step("detached")
        domain.revoke_group(segment.aid)
        self.kernel._verb_step("revoked")
        self.drop_group("detach", domain, segment.aid)

    def _private_group_for(self, domain: ProtectionDomain) -> int:
        aid = self._private_groups.get(domain.pd_id)
        if aid is None:
            aid = self.kernel.create_page_group()
            self._private_groups[domain.pd_id] = aid
        return aid

    def set_pages_rights(
        self, domain: ProtectionDomain, vpns: tuple[int, ...], rights: Rights, verb: str
    ) -> None:
        # Per-domain rights cannot be expressed inside a shared group:
        # the pages must move to a group private to the domain (§4.1.2's
        # read-write-pages-in-a-read-only-segment example).  Other
        # domains consequently lose access to them until they move
        # back — the global nature of page-group protection.  One
        # message per remote CPU rewrites the batch's resident entries.
        aid = self._private_group_for(domain)
        if not domain.holds_group(aid):
            self.grant(domain, aid, write_disable=False, verb=verb)
        for vpn in vpns:
            self.kernel.group_table.move(vpn, aid)
            self.kernel.group_table.set_rights(vpn, rights)
        self.kernel.bus.shootdown_range(
            verb,
            vpns,
            lambda pages: lambda system: system.tlb.update_pages(
                pages, rights=rights, aid=aid
            ),
        )

    def set_rights_all_pages(self, vpns: tuple[int, ...], rights: Rights) -> None:
        # "The change is easily made in a single TLB entry" (§4.1.2):
        # one entry per page on each CPU, one message per remote CPU for
        # the whole batch.
        for vpn in vpns:
            self.kernel.group_table.set_rights(vpn, rights)
        self.kernel.bus.shootdown_range(
            "set_rights_all",
            vpns,
            lambda pages: lambda system: system.tlb.update_pages(pages, rights=rights),
        )

    def set_segment_rights(
        self, domain: ProtectionDomain, segment: VirtualSegment, rights: Rights
    ) -> None:
        # Per-domain, whole-segment changes map onto the PID
        # write-disable bit; revocation, like a changed bit, reaches
        # every CPU running the domain.
        domain.attachments[segment.seg_id] = rights
        if rights == Rights.NONE:
            domain.revoke_group(segment.aid)
            self.drop_group("set_segment_rights", domain, segment.aid)
            return
        self.grant(
            domain,
            segment.aid,
            write_disable=not rights & Rights.WRITE,
            verb="set_segment_rights",
        )

    def grant(
        self, domain: ProtectionDomain, aid: int, *, write_disable: bool, verb: str
    ) -> None:
        """Grant a group, or change the write-disable bit of a held one.

        A fresh grant stays lazy: remote CPUs load the group on their
        next group miss.  A changed bit must reach every remote CPU
        running the domain, or its holder keeps granting the old bit:
        one protection message drops the cached entry there, and the
        next group miss reloads it from the domain record.
        """
        held = domain.groups.get(aid)
        entry = domain.grant_group(aid, write_disable=write_disable)
        if self.kernel.system.current_domain == domain.pd_id:
            self.system.groups.install(entry)
        if held is not None and held.write_disable != entry.write_disable:
            self.drop_group(verb, domain, aid, include_local=False)

    def drop_group(
        self,
        verb: str,
        domain: ProtectionDomain,
        aid: int,
        *,
        include_local: bool = True,
    ) -> None:
        """Drop ``aid`` from the group holder of every CPU running ``domain``."""
        pd_id = domain.pd_id
        self.kernel.bus.shootdown(
            verb,
            lambda system: int(system.groups.invalidate(aid)),
            predicate=lambda ctx: ctx.system.current_domain == pd_id,
            include_local=include_local,
        )

    def invalidate_translation_on(self, system: PageGroupSystem, vpn: int) -> int:
        return int(system.tlb.invalidate(vpn))

    def invalidate_translations_on(self, system: PageGroupSystem, vpns) -> int:
        # One associative pass drops every resident entry of the batch.
        return system.tlb.invalidate_pages(vpns)

    def rebuild_protection(self, pd_id: int | None = None) -> None:
        # The AID-tagged TLB refills from the group table via
        # ``page_info``; the group holder reloads lazily (group miss ->
        # ``domain_group_entry``) or eagerly at the next switch.
        self.system.tlb.purge()
        self.system.groups.clear()


class ConventionalOps(ModelOps):
    """Conventional ASID-tagged model: the Section 3.1 baseline."""

    @property
    def system(self) -> ConventionalSystem:
        system = self.kernel.system
        assert isinstance(system, ConventionalSystem)
        return system

    def _asid(self, domain: ProtectionDomain) -> int:
        return domain.pd_id if self.system.asid_tagged else 0

    def _mirror(self, domain: ProtectionDomain) -> LinearPageTable:
        return self.kernel.linear_tables[domain.pd_id]

    def attach(self, domain: ProtectionDomain, segment: VirtualSegment, rights: Rights) -> None:
        # The per-domain page table gains a (duplicated) entry for every
        # resident page of the segment — the §3.1 replication cost.
        domain.attachments[segment.seg_id] = rights
        self.kernel._verb_step("attached")
        mirror = self._mirror(domain)
        for vpn in segment.vpns():
            pfn = self.kernel.translations.pfn_for(vpn)
            if pfn is not None:
                mirror.map(vpn, pfn, rights)
                self.kernel.stats.inc("kernel.pte_replicated")

    def detach(self, domain: ProtectionDomain, segment: VirtualSegment) -> None:
        del domain.attachments[segment.seg_id]
        domain.clear_overrides_in(segment.base_vpn, segment.end_vpn)
        self.kernel._verb_step("detached")
        mirror = self._mirror(domain)
        for vpn in segment.vpns():
            mirror.unmap(vpn)
        self.kernel._verb_step("mirror_cleared")
        asid, lo, hi = self._asid(domain), segment.base_vpn, segment.end_vpn
        self.kernel.bus.shootdown(
            "detach", lambda system: system.tlb.invalidate_domain_range(asid, lo, hi)[1]
        )

    def set_pages_rights(
        self, domain: ProtectionDomain, vpns: tuple[int, ...], rights: Rights, verb: str
    ) -> None:
        # One mirror sweep and one range shootdown for the domain's
        # ASID; the single-domain case dodges §4.1.3's D-message tax.
        # Only where the entries under ``asid`` are this domain's: an
        # untagged TLB's belong to whichever domain runs there.
        for vpn in vpns:
            domain.page_overrides[vpn] = rights
        self._mirror(domain).set_rights_many(vpns, rights)
        asid, pd_id = self._asid(domain), domain.pd_id
        self.kernel.bus.shootdown_range(
            verb,
            vpns,
            lambda pages: lambda system: (
                system.tlb.update_rights_pages(asid, pages, rights)
                if system.entry_domain(asid) == pd_id
                else 0
            ),
        )

    def set_rights_all_pages(self, vpns: tuple[int, ...], rights: Rights) -> None:
        # One TLB/PTE update per attached domain: replication makes the
        # all-domains change linear in the sharers.  Batching collapses
        # the page factor, never the domain factor: each sharing domain
        # needs its own shootdown (its replicas are tagged with its
        # ASID), so the verb costs D messages per CPU where the SASOS
        # models send one — §4.1.3's ordering survives range shootdowns.
        by_domain: dict[int, list[int]] = {}
        domains: dict[int, ProtectionDomain] = {}
        for vpn in vpns:
            segment = self.kernel.segment_at(vpn)
            if segment is None:
                continue
            for domain in self.kernel.attached_domains(segment):
                by_domain.setdefault(domain.pd_id, []).append(vpn)
                domains[domain.pd_id] = domain
        for pd_id, domain_vpns in by_domain.items():
            domain = domains[pd_id]
            mirror = self._mirror(domain)
            for vpn in domain_vpns:
                domain.page_overrides[vpn] = rights
            mirror.set_rights_many(domain_vpns, rights)
            asid = self._asid(domain)
            self.kernel.bus.shootdown_range(
                "set_rights_all",
                domain_vpns,
                lambda pages, asid=asid: lambda system: system.tlb.update_rights_pages(
                    asid, pages, rights
                ),
            )

    def set_segment_rights(
        self, domain: ProtectionDomain, segment: VirtualSegment, rights: Rights
    ) -> None:
        domain.attachments[segment.seg_id] = rights
        domain.clear_overrides_in(segment.base_vpn, segment.end_vpn)
        mirror = self._mirror(domain)
        for vpn in segment.vpns():
            mirror.set_rights(vpn, rights)
        asid, lo, hi = self._asid(domain), segment.base_vpn, segment.end_vpn
        self.kernel.bus.shootdown(
            "set_segment_rights",
            lambda system: system.tlb.invalidate_domain_range(asid, lo, hi)[1],
        )

    def invalidate_translation_on(self, system: ConventionalSystem, vpn: int) -> int:
        # Every domain's replica must go (§3.1's coherence burden).
        return system.tlb.invalidate_page(vpn)[1]

    def invalidate_translations_on(self, system: ConventionalSystem, vpns) -> int:
        # One sweep removes every domain's replicas of the whole batch.
        return system.tlb.invalidate_pages(vpns)[1]

    def rebuild_protection(self, pd_id: int | None = None) -> None:
        # The combined TLB refills from the linear-table mirrors, so the
        # mirrors themselves must be reconstructed from the attachment
        # tables and the global translation table — the conventional
        # model's recovery is linear in the attached pages, where the
        # SASOS models just flush (the §3.1 duplication cost again).
        self.system.tlb.purge()
        kernel = self.kernel
        domains = (
            kernel.domains.values() if pd_id is None else [kernel.domains[pd_id]]
        )
        for domain in domains:
            mirror = LinearPageTable(kernel.params)
            kernel.linear_tables[domain.pd_id] = mirror
            for seg_id, rights in domain.attachments.items():
                segment = kernel.segments.get(seg_id)
                if segment is None:
                    continue
                for vpn in segment.vpns():
                    pfn = kernel.translations.pfn_for(vpn)
                    if pfn is not None:
                        mirror.map(
                            vpn, pfn, domain.page_overrides.get(vpn, rights)
                        )

    def on_populate(self, vpn: int, pfn: int) -> None:
        # Keep every attached domain's linear table in step — the
        # duplicated-mapping maintenance §3.1 complains about.
        segment = self.kernel.segment_at(vpn)
        if segment is None:
            return
        for domain in self.kernel.attached_domains(segment):
            rights = domain.page_overrides.get(vpn, domain.attachments[segment.seg_id])
            self._mirror(domain).map(vpn, pfn, rights)
            self.kernel.stats.inc("kernel.pte_replicated")

    def on_unmap(self, vpn: int) -> None:
        segment = self.kernel.segment_at(vpn)
        if segment is None:
            return
        for domain in self.kernel.attached_domains(segment):
            self._mirror(domain).unmap(vpn)
