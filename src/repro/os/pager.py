"""A user-level paging server (Section 4.1.3).

Pages must be protected from application access while page-in/page-out
operations are in progress; the paging server's own protection domain is
granted exclusive access for the duration.  The model-specific mechanics
follow Table 1's compression-paging row:

* PLB system — mark the page inaccessible to the clients in the PLB,
  page the data out, remove the TLB entry; on page-in, restore the
  clients' rights on every CPU (new PLB entries fault in lazily).
* Page-group system — move the page to the server's private page-group
  (one TLB-entry update), page out, remove the TLB entry; on page-in,
  move the page back to its original group.

Page-in restores only what the page-out took away: a rights verb issued
while the page is out (a domain's new rights, or a move to another
group) is kept.

The pager optionally compresses page images (the Appel & Li compression
paging workload is built directly on this class).

The pager is also the OS layer's main consumer of the typed disk-fault
hierarchy: transient I/O errors are retried with exponential backoff
(``disk.retries`` / ``disk.backoff_slots`` counters), unrecoverable
corruption degrades to a zero-filled page (``pager.data_loss``) rather
than killing the machine, and every paging operation announces its
mutation boundaries to the intent journal so a crash at any step can be
rolled back (:mod:`repro.faults.journal`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.mmu import PageFault, ProtectionFault
from repro.core.rights import Rights
from repro.faults.errors import (
    CorruptPageError,
    DiskError,
    MissingPageError,
    TransientDiskError,
)
from repro.hardware.backing import CompressedStore
from repro.os.domain import ProtectionDomain
from repro.os.kernel import Kernel

#: Transient disk errors tolerated per operation before giving up.
MAX_DISK_RETRIES = 3


class PagerError(ValueError):
    """A paging operation was invoked against the protocol.

    Subclasses ``ValueError`` for compatibility with the seed contract
    (misuse historically raised bare ``ValueError``).
    """


@dataclass
class _EvictedState:
    """What must be restored when the page comes back."""

    #: Page-group model: the group the page held.
    aid: int | None = None
    #: Domain-page model: the clients the page-out revoked, each with
    #: its rights override before the page-out (None when the domain
    #: fell through to its attachment grant).  A rights verb on the page
    #: while it is out drops its domains from here (see
    #: :meth:`UserLevelPager._on_rights_verb`): page-in restores only
    #: revocations that are still in place.
    overrides: dict[int, Rights | None] | None = None


class UserLevelPager:
    """A paging server running in its own protection domain.

    Args:
        kernel: The kernel to serve.
        compress: Compress page images on the way out (Appel & Li).
        domain_name: Name for the server's protection domain.
    """

    def __init__(
        self,
        kernel: Kernel,
        *,
        compress: bool = False,
        domain_name: str = "pager",
    ) -> None:
        self.kernel = kernel
        self.compress = compress
        self.domain: ProtectionDomain = kernel.create_domain(domain_name)
        self.store = CompressedStore(store=kernel.backing, stats=kernel.stats)
        self._evicted: dict[int, _EvictedState] = {}
        #: Pages with a paging operation in flight — the re-entrancy
        #: guard (a fault raised *inside* page_in must not recurse).
        self._busy: set[int] = set()
        if kernel.model == "pagegroup":
            #: The server's private page-group: pages move here while a
            #: paging operation owns them.
            self.server_group = kernel.create_page_group()
            self.domain.grant_group(self.server_group)
        else:
            self.server_group = None
            kernel.add_rights_listener(self._on_rights_verb)
        kernel.add_page_fault_handler(self._on_page_fault)
        kernel.add_protection_handler(self._on_protection_fault)

    # ------------------------------------------------------------------ #
    # Retried disk I/O

    def _write_with_retry(self, vpn: int, data: bytes) -> None:
        kernel = self.kernel
        attempts = 0
        while True:
            try:
                if self.compress:
                    self.store.page_out(vpn, data)
                else:
                    kernel.backing.write(vpn, data)
                if attempts:
                    kernel.stats.inc("faults.recovered")
                return
            except TransientDiskError:
                attempts += 1
                kernel.stats.inc("disk.retries")
                kernel.stats.inc("disk.backoff_slots", 1 << (attempts - 1))
                if attempts > MAX_DISK_RETRIES:
                    raise DiskError(
                        f"write of page {vpn:#x} failed after {attempts} attempts"
                    ) from None

    def _read_with_retry(self, vpn: int) -> bytes:
        kernel = self.kernel
        attempts = 0
        while True:
            try:
                if self.compress:
                    data = self.store.page_in(vpn)
                else:
                    data = kernel.backing.read(vpn)
                if attempts:
                    kernel.stats.inc("faults.recovered")
                return data
            except MissingPageError:
                raise
            except (TransientDiskError, CorruptPageError) as err:
                attempts += 1
                kernel.stats.inc("disk.retries")
                kernel.stats.inc("disk.backoff_slots", 1 << (attempts - 1))
                if attempts > MAX_DISK_RETRIES:
                    if isinstance(err, CorruptPageError):
                        # The image is gone for good.  Trading the data
                        # for a zero page keeps the machine alive; the
                        # loss is visible in the counters.
                        kernel.stats.inc("pager.data_loss")
                        kernel.stats.inc("faults.recovered")
                        return bytes(kernel.params.page_size)
                    raise DiskError(
                        f"read of page {vpn:#x} failed after {attempts} attempts"
                    ) from None

    # ------------------------------------------------------------------ #
    # Page-out

    def page_out(self, vpn: int) -> None:
        """Evict one page to backing store (Table 1 "Page-out")."""
        kernel = self.kernel
        if vpn in self._busy:
            raise PagerError(f"page {vpn:#x} has a paging operation in flight")
        if vpn in self._evicted:
            raise PagerError(f"page {vpn:#x} is already paged out")
        pfn = kernel.translations.pfn_for(vpn)
        if pfn is None:
            raise PagerError(f"page {vpn:#x} is not resident")
        self._busy.add(vpn)
        try:
            with kernel.tracer.span("pager.page_out", vpn=vpn, compress=self.compress):
                state = _EvictedState()
                self._grab_exclusive(vpn, state)
                kernel._verb_step("protected")
                data = kernel.memory.read_page(pfn) or bytes(kernel.params.page_size)
                try:
                    self._write_with_retry(vpn, data)
                    kernel._verb_step("written")
                except DiskError:
                    # Nothing durable was written: give the clients their
                    # rights back and leave the page resident.
                    self._restore_access(vpn, state)
                    raise
                kernel.free_page(vpn)
                kernel._verb_step("freed")
                kernel.translations.mark_on_disk(vpn, True)
                self._evicted[vpn] = state
                kernel.stats.inc("pager.page_out")
        finally:
            self._busy.discard(vpn)

    def _grab_exclusive(self, vpn: int, state: _EvictedState) -> None:
        """Deny client access for the duration of the operation."""
        kernel = self.kernel
        if kernel.model == "pagegroup":
            # The move alone shuts the clients out.  The page keeps its
            # own global rights in the server group, so a rights verb
            # issued while the page is out lands where page-in finds it.
            state.aid = kernel.group_table.aid_of(vpn)
            assert self.server_group is not None
            kernel.move_page_to_group(
                vpn, self.server_group, rights=kernel.group_table.rights_of(vpn)
            )
        else:
            segment = kernel.segment_at(vpn)
            overrides: dict[int, Rights | None] = {}
            if segment is not None:
                for domain in kernel.attached_domains(segment):
                    overrides[domain.pd_id] = domain.page_overrides.get(vpn)
            state.overrides = overrides
            kernel.set_rights_all_domains(vpn, Rights.NONE)

    # ------------------------------------------------------------------ #
    # Page-in

    def page_in(self, vpn: int) -> None:
        """Bring one page back from backing store (Table 1 "Page-in")."""
        kernel = self.kernel
        if vpn in self._busy:
            raise PagerError(f"page {vpn:#x} has a paging operation in flight")
        state = self._evicted.get(vpn)
        if state is None:
            raise PagerError(f"page {vpn:#x} was not paged out by this server")
        self._busy.add(vpn)
        try:
            with kernel.tracer.span("pager.page_in", vpn=vpn, compress=self.compress):
                pfn = kernel.populate_page(vpn)
                kernel._verb_step("populated")
                try:
                    data = self._read_with_retry(vpn)
                    kernel.memory.write_page(pfn, data)
                    kernel._verb_step("read")
                except Exception:
                    # Unwind the populate so the page (and the eviction
                    # record) are exactly as before the attempt.
                    kernel.free_page(vpn)
                    raise
                kernel.backing.discard(vpn)
                kernel.translations.mark_on_disk(vpn, False)
                kernel._verb_step("cleared")
                self._restore_access(vpn, state)
                del self._evicted[vpn]
                kernel.stats.inc("pager.page_in")
        finally:
            self._busy.discard(vpn)

    def _restore_access(self, vpn: int, state: _EvictedState) -> None:
        kernel = self.kernel
        if kernel.model == "pagegroup":
            # A verb that moved the page out of the server group while it
            # was out has placed it for good.
            if kernel.group_table.aid_of(vpn) == self.server_group:
                assert state.aid is not None
                kernel.move_page_to_group(
                    vpn, state.aid, rights=kernel.group_table.rights_of(vpn)
                )
            return
        segment = kernel.segment_at(vpn)
        if segment is None or state.overrides is None:
            return
        restored: list[tuple[int, Rights]] = []
        for domain in kernel.attached_domains(segment):
            if domain.pd_id not in state.overrides or vpn not in domain.page_overrides:
                # Not revoked by this page-out, or a verb has since set
                # or cleared the domain's rights on the page: keep those.
                continue
            previous = state.overrides[domain.pd_id]
            if previous is None:
                del domain.page_overrides[vpn]
                effective = domain.attachments[segment.seg_id]
            else:
                domain.page_overrides[vpn] = previous
                effective = previous
            restored.append((domain.pd_id, effective))
        if restored and kernel.model == "plb":
            # The PLB was deliberately left alone at unmap time
            # (Section 4.1.3), so every CPU may still hold the revoked
            # entries; rewrite them with the restored rights.
            def restore(system) -> int:
                return sum(
                    system.plb.update_entries_for_page(vpn, rights, pd_id=pd_id)[1]
                    for pd_id, rights in restored
                )

            restore(kernel.system)
            kernel.bus.shootdown("page_in", restore, include_local=False)

    def _on_rights_verb(self, domain: ProtectionDomain | None, vpns) -> None:
        """A rights verb has replaced revocations on pages held out.

        ``domain`` None means every attached domain's rights changed.
        """
        for vpn in vpns:
            state = self._evicted.get(vpn)
            if state is None:
                continue
            if domain is None:
                state.overrides.clear()
            else:
                state.overrides.pop(domain.pd_id, None)

    # ------------------------------------------------------------------ #
    # Fault plumbing

    def _fault_page_in(self, vpn: int) -> bool:
        """Shared guard logic for both fault flavours."""
        if vpn not in self._evicted or vpn in self._busy:
            # Not ours, or a paging operation on this very page raised
            # the fault — recursing into page_in would corrupt the
            # in-flight operation's state.
            return False
        if self.kernel.segment_at(vpn) is None:
            # The segment died after the eviction; drop the stale record
            # instead of resurrecting a dead address.
            del self._evicted[vpn]
            self.kernel.stats.inc("pager.stale_eviction_dropped")
            return False
        self.page_in(vpn)
        return True

    def _on_page_fault(self, fault: PageFault) -> bool:
        """Demand page-in for faults on pages this server evicted."""
        return self._fault_page_in(self.kernel.params.vpn(fault.vaddr))

    def _on_protection_fault(self, fault: ProtectionFault) -> bool:
        """Evicted pages fault as *protection* faults on the PLB system.

        The PLB is checked before translation, and the page-out protocol
        set the clients' rights to none; the kernel recognizes the
        paged-out page from the fault and restores it (Section 4.1.3).
        """
        return self._fault_page_in(self.kernel.params.vpn(fault.vaddr))

    @property
    def evicted_pages(self) -> set[int]:
        return set(self._evicted)
