"""Copy-on-write segments: the paper's one sanctioned synonym.

Footnote 4 of the paper: "Note that this does not prevent the use of
copy-on-write optimizations.  Copy-on-write uses read-only synonyms
which do not have to be kept coherent.  As soon as a write occurs to
one copy of an address, the page is copied, and the synonym no longer
exists."

A SASOS gives the logical copy a *new* virtual address (addresses are
never multiply allocated), but lets the copy's pages share the
original's physical frames while both sides are read-only.  Two virtual
pages pointing at one frame is a synonym — harmless here precisely
because neither side can write.  The first write to either side traps;
the :class:`CopyOnWriteManager` breaks the sharing by giving the writer
a private frame with copied contents and restores its write access.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.mmu import ProtectionFault
from repro.core.rights import AccessType, Rights
from repro.os.domain import ProtectionDomain
from repro.os.kernel import Kernel
from repro.os.segment import VirtualSegment


@dataclass
class _ShareGroup:
    """The set of virtual pages currently sharing one frame."""

    pfn: int
    vpns: set[int] = field(default_factory=set)


class CopyOnWriteManager:
    """Creates and services copy-on-write segment copies.

    Attach domains to COW segments through :meth:`attach`, which records
    the rights the domain *ultimately* wants; while a page is shared the
    domain sees it read-only, and the manager's fault handler upgrades
    it after breaking the share.
    """

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel
        #: vpn -> its share group (both/all sharers point at the same
        #: object).
        self._shares: dict[int, _ShareGroup] = {}
        #: (pd_id, vpn) -> rights the domain holds once the page is
        #: private again.
        self._intended: dict[tuple[int, int], Rights] = {}
        kernel.add_protection_handler(self._on_fault)
        kernel.stats.inc("cow.managers")

    # ------------------------------------------------------------------ #
    # Creating copies

    def create_copy(self, source: VirtualSegment, name: str) -> VirtualSegment:
        """A logical copy of ``source`` at a fresh global address.

        The copy's pages share the source's frames (read-only synonyms);
        nothing is copied until somebody writes.
        """
        kernel = self.kernel
        with kernel.tracer.span("cow.create_copy", seg=source.seg_id):
            return self._create_copy(source, name)

    def _create_copy(self, source: VirtualSegment, name: str) -> VirtualSegment:
        kernel = self.kernel
        copy = kernel.create_segment(
            name, source.n_pages, group_rights=Rights.READ, populate=False
        )
        shared: list[int] = []
        for index, src_vpn in enumerate(source.vpns()):
            pfn = kernel.translations.pfn_for(src_vpn)
            if pfn is None:
                continue  # non-resident pages stay demand-zero
            copy_vpn = copy.vpn_at(index)
            group = self._shares.get(src_vpn)
            if group is None:
                group = _ShareGroup(pfn=pfn, vpns={src_vpn})
                self._shares[src_vpn] = group
            group.vpns.add(copy_vpn)
            self._shares[copy_vpn] = group
            kernel.translations.map(copy_vpn, pfn)
            kernel.stats.inc("cow.pages_shared")
            shared.append(src_vpn)
            # Sharing makes both sides read-only for every holder.
            self._demote_all_domains(src_vpn)
        if kernel.model == "pagegroup":
            # The source pages' one global rights field goes read-only
            # while shared; the range shootdown rewrites every CPU's
            # resident TLB entries.
            kernel.set_pages_rights_global(shared, Rights.READ)
        return copy

    def _demote_all_domains(self, vpn: int) -> None:
        """Make a newly shared page read-only everywhere."""
        kernel = self.kernel
        segment = kernel.segment_at(vpn)
        if segment is None:
            return
        for domain in kernel.attached_domains(segment):
            key = (domain.pd_id, vpn)
            if key not in self._intended:
                current = domain.page_overrides.get(
                    vpn, domain.attachments[segment.seg_id]
                )
                self._intended[key] = current
            if kernel.model != "pagegroup":
                kernel.set_page_rights(domain, vpn, Rights.READ)

    # ------------------------------------------------------------------ #
    # Attachment

    def attach(
        self, domain: ProtectionDomain, segment: VirtualSegment, rights: Rights
    ) -> None:
        """Attach with COW awareness: shared pages start read-only."""
        kernel = self.kernel
        kernel.attach(domain, segment, rights)
        for vpn in segment.vpns():
            if vpn in self._shares:
                self._intended[(domain.pd_id, vpn)] = rights
                if kernel.model != "pagegroup":
                    kernel.set_page_rights(domain, vpn, Rights.READ)

    # ------------------------------------------------------------------ #
    # Breaking shares

    def _on_fault(self, fault: ProtectionFault) -> bool:
        if fault.access is not AccessType.WRITE:
            return False
        vpn = self.kernel.params.vpn(fault.vaddr)
        if vpn not in self._shares:
            return False
        intended_rights = self._intended.get((fault.pd_id, vpn), Rights.RW)
        if not intended_rights.allows(AccessType.WRITE):
            # The domain could never write this page; not a COW fault.
            return False
        self.break_share(vpn)
        # Restore the faulting domain's intended rights on its now
        # private page.
        domain = self.kernel.domains[fault.pd_id]
        intended = self._intended.pop((fault.pd_id, vpn), Rights.RW)
        if self.kernel.model == "pagegroup":
            self.kernel.set_page_rights_global(vpn, intended)
        else:
            self.kernel.set_page_rights(domain, vpn, intended)
        return True

    def break_share(self, vpn: int) -> None:
        """Give ``vpn`` a private frame; the synonym for it disappears."""
        kernel = self.kernel
        with kernel.tracer.span("cow.break_share", vpn=vpn):
            self._break_share(vpn)

    def _break_share(self, vpn: int) -> None:
        kernel = self.kernel
        group = self._shares.pop(vpn)
        group.vpns.discard(vpn)
        kernel.stats.inc("cow.breaks")
        if len(group.vpns) >= 1:
            # Others still share the old frame; this page gets a copy.
            # unmap_page does the full demotion dance — cache flush, TLB
            # invalidation (including any superpage entry covering the
            # page) and contiguous-segment demotion — and returns the
            # frame *without* releasing it, which is exactly right: the
            # remaining sharers still own it.
            data = kernel.memory.read_page(group.pfn)
            kernel.unmap_page(vpn)
            new_pfn = kernel.populate_page(vpn)
            if data is not None:
                kernel.memory.write_page(new_pfn, data)
                kernel.stats.inc("cow.pages_copied")
        if len(group.vpns) == 1:
            # The last other sharer is alone now: its page is private
            # too, and its holders get their intended rights back.
            last = next(iter(group.vpns))
            self._shares.pop(last, None)
            self._restore_intended(last)

    def _restore_intended(self, vpn: int) -> None:
        kernel = self.kernel
        segment = kernel.segment_at(vpn)
        if segment is None:
            return
        if kernel.model == "pagegroup":
            # One global rights field: restore to the most permissive
            # intent recorded (per-domain splits would need page moves).
            rights = Rights.READ
            for domain in kernel.attached_domains(segment):
                intended = self._intended.pop((domain.pd_id, vpn), None)
                if intended is not None:
                    rights |= intended
            kernel.set_page_rights_global(vpn, rights)
            return
        for domain in kernel.attached_domains(segment):
            intended = self._intended.pop((domain.pd_id, vpn), None)
            if intended is not None:
                kernel.set_page_rights(domain, vpn, intended)

    # ------------------------------------------------------------------ #
    # Introspection

    def is_shared(self, vpn: int) -> bool:
        return vpn in self._shares

    def sharers_of(self, vpn: int) -> set[int]:
        group = self._shares.get(vpn)
        return set(group.vpns) if group else set()
