"""Distributed shared virtual memory (Table 1, rows 5-7).

A Li-style page-coherence protocol across several SASOS nodes: a shared
segment lives at the *same* global virtual address on every node (the
distributed single address space of Carter et al.), with a directory
tracking which node owns each page and which hold read copies.

The protection verbs come straight from Table 1:

* *Get Readable* — trap the access, fetch a valid copy from the owner,
  set the page read-only locally (PLB entry / TLB rights + accessible
  page-group).
* *Get Writable* — trap, fetch an exclusive copy, invalidate the other
  copies remotely, set read-write locally.
* *Invalidate* — a remote write invalidates the local copy: set its
  access rights to none.

Every node is a full kernel+machine of the same protection model; the
coherence messages are modelled as counters (``dsm.msg.*``) plus page
copies through physical memory.  The protocol and every node kernel
charge the cluster's one store, ``DSMCluster.stats``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.core.mmu import PageFault, ProtectionFault
from repro.core.rights import AccessType, Rights
from repro.faults.errors import (
    ClusterConfigError,
    DSMProtocolError,
    MissingPageError,
)
from repro.os.domain import ProtectionDomain
from repro.os.kernel import Kernel
from repro.os.segment import VirtualSegment
from repro.sim.machine import SMPMachine
from repro.sim.stats import Stats
from repro.workloads.tracegen import TraceGenerator

#: Global base address all nodes agree on for the shared segment.
SHARED_BASE_VPN = 0x4000


class CopyState(enum.Enum):
    """A node's relationship to one shared page."""

    INVALID = "invalid"
    SHARED = "shared"
    EXCLUSIVE = "exclusive"


@dataclass
class PageDirectoryEntry:
    """Directory state for one shared page."""

    owner: int
    copyset: set[int] = field(default_factory=set)
    state: CopyState = CopyState.EXCLUSIVE


class DSMNode:
    """One machine in the distributed shared memory cluster."""

    def __init__(
        self,
        node_id: int,
        model: str,
        pages: int,
        *,
        populate: bool | None = None,
        **kernel_options,
    ) -> None:
        self.node_id = node_id
        self.kernel = Kernel(model, **kernel_options)
        #: The node is an SMP machine, not a bare kernel: one pinned
        #: Machine per CPU over the shared authority.  ``machine`` stays
        #: the CPU-0 view, so single-CPU nodes behave (and count)
        #: exactly as before.
        self.smp = SMPMachine(self.kernel)
        self.machine = self.smp.machines[0]
        self.domain: ProtectionDomain = self.kernel.create_domain(f"app@{node_id}")
        # The shared segment sits at the agreed global address.  Only the
        # initial owner's pages get frames eagerly; other nodes populate
        # on demand as copies arrive.  A rejoining cluster node passes
        # ``populate=False`` explicitly: it boots with no valid copies
        # regardless of its node id.
        if populate is None:
            populate = node_id == 0
        self.segment: VirtualSegment = self.kernel.create_segment(
            "shared",
            pages,
            base_vpn=SHARED_BASE_VPN,
            populate=populate,
        )
        self.kernel.attach(
            self.domain, self.segment, Rights.RW if populate else Rights.NONE
        )
        if not populate and self.kernel.model == "pagegroup":
            # Non-owners hold the group so that TLB entries resolve, but
            # the per-page rights field starts at NONE below.
            self.kernel.set_segment_rights(self.domain, self.segment, Rights.RW)
        if not populate:
            for vpn in self.segment.vpns():
                self._set_local_rights(vpn, Rights.NONE)

    def _set_local_rights(self, vpn: int, rights: Rights) -> None:
        """Apply a coherence decision to one page's local protection."""
        self._set_local_rights_range((vpn,), rights)

    def _set_local_rights_range(self, vpns, rights: Rights) -> None:
        """Apply a coherence decision to a page batch with ONE verb.

        The node-local half of a DSM ``invalidate_range``: one kernel
        entry and one batched range shootdown per remote CPU, so an
        M-CPU node pays 1 IPI per remote CPU for the whole set instead
        of len(vpns)×(M−1) per-page messages.  A single page takes the
        range verb's one-page form, which charges as the per-page verb.
        """
        vpns = tuple(vpns)
        if not vpns:
            return
        kernel = self.kernel
        if kernel.model == "pagegroup":
            resident = tuple(
                vpn for vpn in vpns if kernel.translations.is_resident(vpn)
            )
            if resident:
                kernel.set_pages_rights_global(resident, rights)
            for vpn in vpns:
                if vpn not in resident:
                    kernel.group_table.set_rights(vpn, rights)
        else:
            kernel.set_pages_rights(self.domain, vpns, rights)

    def cpu_for(self, vpn: int) -> int:
        """The page's shard-home CPU: authority shard mod CPU count."""
        return self.kernel.shard_of(vpn) % self.kernel.n_cpus

    def touch_home(self, vaddr: int, access: AccessType) -> object:
        """One reference routed to the faulting page's shard-home CPU."""
        vpn = self.kernel.params.vpn(vaddr)
        return self.smp.touch_on(self.cpu_for(vpn), self.domain, vaddr, access)

    def ensure_resident(self, vpn: int) -> None:
        if not self.kernel.translations.is_resident(vpn):
            self.kernel.populate_page(vpn)


class DSMCluster:
    """A directory-based shared-VM cluster of SASOS nodes."""

    def __init__(
        self,
        model: str,
        *,
        nodes: int = 4,
        pages: int = 32,
        seed: int = 7,
    ) -> None:
        if nodes < 2:
            raise ClusterConfigError("a DSM cluster needs at least two nodes")
        self.model = model
        self.stats = Stats()
        self.nodes = [
            DSMNode(i, model, pages, stats=self.stats) for i in range(nodes)
        ]
        self.pages = pages
        self.gen = TraceGenerator(seed, self.nodes[0].kernel.params)
        self.directory: dict[int, PageDirectoryEntry] = {
            vpn: PageDirectoryEntry(owner=0)
            for vpn in self.nodes[0].segment.vpns()
        }
        #: Which nodes currently hold a *valid* copy (resident data that
        #: matches the owner's).
        self._valid: dict[int, set[int]] = {vpn: {0} for vpn in self.directory}
        for node in self.nodes:
            node.kernel.add_protection_handler(self._handler_for(node))
            node.kernel.add_page_fault_handler(self._handler_for(node))

    # ------------------------------------------------------------------ #
    # Coherence protocol

    def _handler_for(self, node: DSMNode):
        def handle(fault: ProtectionFault | PageFault) -> bool:
            vpn = node.kernel.params.vpn(fault.vaddr)
            if vpn not in self.directory:
                return False
            if fault.access is AccessType.WRITE:
                self.get_writable(node, vpn)
            else:
                self.get_readable(node, vpn)
            return True

        return handle

    def _entry(self, vpn: int) -> PageDirectoryEntry:
        entry = self.directory.get(vpn)
        if entry is None:
            raise DSMProtocolError(
                f"page {vpn:#x} is outside the shared directory"
            )
        return entry

    def get_readable(self, node: DSMNode, vpn: int) -> None:
        """Table 1 "Get Readable": fetch a copy, make it read-only."""
        entry = self._entry(vpn)
        self.stats.inc("dsm.get_readable")
        node.ensure_resident(vpn)
        if node.node_id not in self._valid[vpn]:
            # "Check to see if the copy in memory is valid, and retrieve
            # it from the remote host if it's not."
            self._fetch_copy(node, vpn, entry.owner)
        if entry.state is CopyState.EXCLUSIVE and entry.owner != node.node_id:
            # Demote the writer to a shared copy.
            self.nodes[entry.owner]._set_local_rights(vpn, Rights.READ)
            self.stats.inc("dsm.msg.demote")
        entry.state = CopyState.SHARED
        entry.copyset.add(node.node_id)
        node._set_local_rights(vpn, Rights.READ)

    def get_writable(self, node: DSMNode, vpn: int) -> None:
        """Table 1 "Get Writable": exclusive copy, invalidate the rest."""
        entry = self._entry(vpn)
        self.stats.inc("dsm.get_writable")
        node.ensure_resident(vpn)
        if node.node_id not in self._valid[vpn]:
            self._fetch_copy(node, vpn, entry.owner)
        for other_id in sorted(entry.copyset | {entry.owner}):
            if other_id == node.node_id:
                continue
            self._invalidate_on(other_id, vpn)
        entry.owner = node.node_id
        entry.copyset = {node.node_id}
        entry.state = CopyState.EXCLUSIVE
        self._valid[vpn] = {node.node_id}
        node._set_local_rights(vpn, Rights.RW)

    def _fetch_copy(self, node: DSMNode, vpn: int, owner_id: int) -> None:
        """Move the page image from the owner to this node."""
        self.stats.inc("dsm.msg.fetch")
        owner = self.nodes[owner_id]
        src_pfn = owner.kernel.translations.pfn_for(vpn)
        data = (
            owner.kernel.memory.read_page(src_pfn)
            if src_pfn is not None
            else None
        ) or bytes(node.kernel.params.page_size)
        dst_pfn = node.kernel.translations.pfn_for(vpn)
        if dst_pfn is None:
            raise MissingPageError(
                f"node {node.node_id} has no frame for shared page {vpn:#x}"
            )
        node.kernel.memory.write_page(dst_pfn, data)
        self._valid[vpn].add(node.node_id)

    def _invalidate_on(self, node_id: int, vpn: int) -> None:
        """Table 1 "Invalidate": remote machine kills the local copy."""
        self.stats.inc("dsm.msg.invalidate")
        node = self.nodes[node_id]
        node._set_local_rights(vpn, Rights.NONE)
        self._valid[vpn].discard(node_id)

    # ------------------------------------------------------------------ #
    # Workload drivers

    def run_migratory(self, *, rounds: int = 3, refs_per_round: int = 200) -> Stats:
        """Each node in turn read-modify-writes the whole region.

        The classic migratory sharing pattern: pages follow the active
        node, generating get-writable + invalidate traffic.
        """
        before = self.stats.snapshot()
        for round_no in range(rounds):
            for node in self.nodes:
                for ref in self.gen.refs(
                    node.domain.pd_id, node.segment, refs_per_round
                ):
                    node.machine.touch(node.domain, ref.vaddr, ref.access)
        return self.stats.delta(before)

    def run_producer_consumer(self, *, iterations: int = 10, region_pages: int = 8) -> Stats:
        """Node 0 writes a region; every other node reads it back.

        Generates write-invalidate followed by read-shared fan-out: the
        pattern where a page's copyset grows and the per-copy costs of
        the two models diverge.
        """
        before = self.stats.snapshot()
        producer = self.nodes[0]
        params = producer.kernel.params
        pages = list(producer.segment.vpns())[:region_pages]
        for _ in range(iterations):
            for vpn in pages:
                producer.machine.write(producer.domain, params.vaddr(vpn))
            for consumer in self.nodes[1:]:
                for vpn in pages:
                    consumer.machine.read(consumer.domain, params.vaddr(vpn))
        return self.stats.delta(before)

    def run_false_sharing(self, *, rounds: int = 20, pages: int = 4) -> Stats:
        """Two nodes write disjoint halves of the same pages.

        No data is actually shared, but page-granular coherence makes
        the pages ping-pong: every round costs invalidations and
        fetches.  This is the false sharing §4.3 blames on coarse
        protection units ("large page sizes ... causing an increase in
        false sharing for distributed virtual memory systems").
        """
        before = self.stats.snapshot()
        a, b = self.nodes[0], self.nodes[1]
        params = a.kernel.params
        half = params.page_size // 2
        target_pages = list(a.segment.vpns())[:pages]
        for _ in range(rounds):
            for vpn in target_pages:
                a.machine.write(a.domain, params.vaddr(vpn, 0))
                b.machine.write(b.domain, params.vaddr(vpn, half))
        return self.stats.delta(before)

    def run_split_pages(self, *, rounds: int = 20, pages: int = 4) -> Stats:
        """The same work as :meth:`run_false_sharing` on disjoint pages.

        The control: with each node's data on its own pages, coherence
        traffic stops after warm-up.
        """
        before = self.stats.snapshot()
        a, b = self.nodes[0], self.nodes[1]
        params = a.kernel.params
        all_pages = list(a.segment.vpns())
        a_pages = all_pages[:pages]
        b_pages = all_pages[pages : 2 * pages]
        for _ in range(rounds):
            for vpn in a_pages:
                a.machine.write(a.domain, params.vaddr(vpn, 0))
            for vpn in b_pages:
                b.machine.write(b.domain, params.vaddr(vpn, 0))
        return self.stats.delta(before)
