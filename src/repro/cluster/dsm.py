"""The fault-tolerant cluster DSM: one address space across nodes.

This is :class:`~repro.workloads.dsm.DSMCluster` reborn as a resilient
subsystem.  The coherence verbs are the same Table 1 trio (Get
Readable, Get Writable, Invalidate), but every remote interaction is a
:class:`~repro.cluster.messages.Message` over the
:class:`~repro.cluster.interconnect.Interconnect`, and the protocol
carries the machinery those wires demand:

* **Timeout / retry with backoff** — every RPC retries with exponential
  backoff (``cluster.retries``); silence after the last retry starts
  suspect resolution.
* **Lease-based ownership** — an exclusive owner holds a write lease
  (renewed by the periodic writeback flush).  Before reassigning a dead
  owner's page, recovery *waits out the lease* (the fencing cost shows
  up on the virtual clock), so a not-actually-dead writer can never
  race its own successor.
* **Heartbeat failure detector** — :meth:`ClusterDSM.tick` exchanges
  heartbeats between the coordinator and every member; a peer missing
  :data:`HEARTBEAT_MISS_LIMIT` consecutive pulses is suspected.
  Suspicion is resolved by *witness probes*: a third node that can
  still reach the suspect proves a partition (-> relay routing), while
  unanimous silence declares death.
* **Ownership handoff + directory re-replication** — a dead node's
  pages move to the lowest-id survivor holding a valid copy, or are
  restored from the home store (``cluster.handoffs``,
  ``cluster.recovery.restored``); the coordinator then re-replicates
  the directory to every live peer (``dir_sync``).
* **Scrubber-style reconciliation** — :meth:`reconcile` audits every
  live node's protection state against the directory and repairs drift
  (``cluster.reconcile.checked`` / ``cluster.reconcile.repairs``), the
  :mod:`repro.faults.scrub` pattern lifted to cluster scope; a crashed
  node :meth:`rejoin`\\ s through the same audit.

Durability contract (what the chaos oracle checks): a page in SHARED
state always matches the home store — every EXCLUSIVE -> SHARED
transition writes back (demotion carries the image; handoff restores
from home), and :meth:`tick` flushes live exclusive pages.  Writes an
exclusive owner performed *after its last flush* are lost if it
crashes: recovery restores the home image, and the oracle's allowed-set
accounts for the one page whose fetch may have raced the crash.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.cluster.interconnect import Interconnect
from repro.cluster.messages import Message
from repro.cluster.node import ClusterNode
from repro.core.rights import AccessType, Rights
from repro.faults.errors import (
    ClusterConfigError,
    ClusterError,
    ClusterTimeoutError,
    ClusterUnavailableError,
    DSMProtocolError,
    NodeCrashedError,
)
from repro.sim.stats import Stats
from repro.workloads.dsm import CopyState, PageDirectoryEntry

#: Consecutive missed heartbeats before a peer is suspected.
HEARTBEAT_MISS_LIMIT = 2

#: First retry backoff, cycles; doubles per attempt.
BACKOFF_BASE_CYCLES = 800

#: Retries of an unanswered RPC before its peer is suspected.
MAX_RETRIES = 3

#: Exclusive-ownership lease, cycles of virtual network time.
LEASE_CYCLES = 20_000


def recovery_percentile(ordered: Sequence[int], q: float) -> int:
    """The ``q`` quantile of sorted recovery episodes (0 when none),
    for both ``repro cluster`` and cluster serve."""
    if not ordered:
        return 0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class LeaseEntry(PageDirectoryEntry):
    """A directory entry with a write-lease expiry for its owner."""

    def __init__(self, owner: int, copyset: set[int], state: CopyState) -> None:
        super().__init__(owner=owner, copyset=copyset, state=state)
        self.lease_until = 0


class ClusterDSM:
    """A directory-based DSM cluster that survives its interconnect."""

    def __init__(
        self,
        model: str,
        *,
        nodes: int = 3,
        pages: int = 8,
        seed: int = 7,
        n_cpus: int = 1,
        auto_rejoin: bool = False,
    ) -> None:
        if nodes < 2:
            raise ClusterConfigError("a DSM cluster needs at least two nodes")
        self.model = model
        self.pages = pages
        self.seed = seed
        self.n_cpus = n_cpus
        self.auto_rejoin = auto_rejoin
        #: The cluster's one store (see :meth:`merged_stats`).
        self.stats = Stats()
        self.net = Interconnect(self.stats)
        self.nodes: dict[int, ClusterNode] = {}
        self._n_boot = nodes
        for node_id in range(nodes):
            self._boot_node(node_id, populate=(node_id == 0))
        self.params = self.nodes[0].kernel.params
        self.vpns: list[int] = list(self.nodes[0].segment.vpns())
        self.directory: dict[int, LeaseEntry] = {
            vpn: LeaseEntry(owner=0, copyset={0}, state=CopyState.EXCLUSIVE)
            for vpn in self.vpns
        }
        #: The durable home store: one replicated page image per vpn.
        #: Conceptually mirrored with the directory; physically one
        #: dict, with ``writeback``/``dir_sync`` messages carrying the
        #: replication cost.
        self.home: dict[int, bytes] = {
            vpn: bytes(self.params.page_size) for vpn in self.vpns
        }
        #: Nodes holding a copy that matches the owner's current image.
        self._valid: dict[int, set[int]] = {vpn: {0} for vpn in self.vpns}
        self.coordinator_id = 0
        #: Failure detector state: node -> consecutive missed pulses.
        self._missed: dict[int, int] = {}
        #: Pairs the detector has confirmed partitioned (relay hints).
        self._partitioned: set[frozenset[int]] = set()
        #: Reentrancy guard: inside recovery, sends are single-shot.
        self._recovering = False
        #: Node ids declared dead and not yet rejoined.
        self.dead: set[int] = set()
        #: True when a node was declared dead while (per ground truth)
        #: still running — the split-brain risk the harness must report
        #: honestly instead of hiding behind a converged end state.
        self.split_brain_risk = False
        #: Recovery episodes, in virtual cycles (declare-dead spans).
        self.recovery_cycles: list[int] = []
        #: Oracle callback: fires when a crash is *injected* (ground
        #: truth), before any detection.  The chaos harness uses it to
        #: apply the crash to the gold model at the exact message step.
        self.on_crash: Callable[[int], None] | None = None

    # -------------------------------------------------------------- #
    # Membership

    def _boot_node(self, node_id: int, *, populate: bool) -> ClusterNode:
        # Every CPU is the home of one VPN-range authority shard (the
        # NUMA-style composition); a single-CPU node has one shard.
        node = ClusterNode(
            node_id, self.model, self.pages, populate=populate,
            stats=self.stats, n_cpus=self.n_cpus, n_shards=self.n_cpus,
        )
        node.kernel.add_protection_handler(self._handler_for(node))
        node.kernel.add_page_fault_handler(self._handler_for(node))
        self.net.register(node_id, self._server_for(node))
        self.nodes[node_id] = node
        return node

    @property
    def live(self) -> list[int]:
        """Protocol-believed members, ascending id."""
        return sorted(
            node_id for node_id, node in self.nodes.items() if node.alive
        )

    def _actors(self) -> list[ClusterNode]:
        """Nodes that can actually run code: believed alive AND not
        ground-truth crashed (a dead machine executes nothing)."""
        return [
            node
            for node_id, node in sorted(self.nodes.items())
            if node.alive and node_id not in self.net.crashed
        ]

    def crash_node(self, node_id: int) -> bool:
        """Ground-truth crash (the injector's entry point).

        The node stops answering immediately; the *cluster* keeps
        believing it is alive until the failure detector says
        otherwise.  Refuses to reduce the cluster below two running
        nodes so witness-based suspect resolution stays possible.
        """
        node = self.nodes.get(node_id)
        if node is None or node_id in self.net.crashed:
            return False
        if len(self._actors()) <= 2:
            self.stats.inc("faults.skipped")
            return False
        self.net.crash(node_id)
        self.stats.inc("cluster.node_crashes")
        if self.on_crash is not None:
            self.on_crash(node_id)
        return True

    def heal_all(self) -> None:
        """Repair every cut link (the ``heal`` fault event / harness)."""
        if self.net.partitions or self._partitioned:
            self.stats.inc("cluster.partitions.healed")
        self.net.heal_all()
        self._partitioned.clear()

    def rejoin(self, node_id: int) -> ClusterNode:
        """Boot a fresh replacement for a dead node and reconcile it."""
        if node_id in self.nodes and self.nodes[node_id].alive:
            raise ClusterConfigError(f"node {node_id} is already a member")
        self.stats.inc("cluster.rejoins")
        self.net.restore(node_id)
        node = self._boot_node(node_id, populate=False)
        self.dead.discard(node_id)
        self._missed.pop(node_id, None)
        # Scrubber-style audit: a fresh node must hold nothing; a
        # heal-rejoined node may hold stale rights to repair.
        self._reconcile_node(node)
        # The coordinator ships it the current directory.
        coord = self.coordinator_id
        if coord != node_id and coord in self.nodes and self.nodes[coord].alive:
            self.net.send(Message("dir_sync", src=coord, dst=node_id))
        return node

    # -------------------------------------------------------------- #
    # Wire server (destination side of every message)

    def _server_for(self, node: ClusterNode) -> Callable[[Message], Message | None]:
        def serve(msg: Message) -> Message | None:
            nid = node.node_id
            kind = msg.kind
            if kind == "fetch":
                data = (
                    node.read_page(msg.vpn)
                    if nid in self._valid.get(msg.vpn, ())
                    else None
                )
                return Message(
                    "fetch_reply", src=nid, dst=msg.src, vpn=msg.vpn,
                    ok=data is not None, payload=data,
                )
            if kind == "demote":
                # Idempotent: freeze to a read-only shared copy and
                # return the current image for the home-store sync.
                data = node.read_page(msg.vpn)
                node._set_local_rights(msg.vpn, Rights.READ)
                return Message(
                    "demote_ack", src=nid, dst=msg.src, vpn=msg.vpn,
                    ok=data is not None, payload=data,
                )
            if kind == "invalidate":
                node._set_local_rights(msg.vpn, Rights.NONE)
                self._valid[msg.vpn].discard(nid)
                return Message(
                    "invalidate_ack", src=nid, dst=msg.src, vpn=msg.vpn
                )
            if kind == "invalidate_range":
                # Idempotent, like single invalidate: every listed copy
                # this node holds dies; one ack covers the whole set.
                # The local application is ONE batched verb, so the one
                # interconnect message fans out to the node's M CPUs as
                # one range shootdown per remote CPU — never as
                # len(vpns) per-page IPIs.
                node._set_local_rights_range(msg.vpns, Rights.NONE)
                for vpn in msg.vpns:
                    self._valid[vpn].discard(nid)
                if node.kernel.n_cpus > 1:
                    self.stats.inc("cluster.smp.invalidate_batches")
                    self.stats.inc(
                        "cluster.smp.invalidate_pages", len(msg.vpns)
                    )
                return Message(
                    "invalidate_range_ack", src=nid, dst=msg.src,
                    vpns=msg.vpns,
                )
            if kind == "writeback":
                self.home[msg.vpn] = msg.payload
                return Message(
                    "writeback_ack", src=nid, dst=msg.src, vpn=msg.vpn
                )
            if kind == "writeback_batch":
                for vpn, image in zip(msg.vpns, msg.payloads):
                    self.home[vpn] = image
                return Message(
                    "writeback_batch_ack", src=nid, dst=msg.src,
                    vpns=msg.vpns,
                )
            if kind in ("heartbeat", "probe"):
                return Message(kind + "_ack", src=nid, dst=msg.src)
            if kind == "dir_sync":
                self.stats.inc("cluster.dir_sync.applied")
                return Message("dir_sync_ack", src=nid, dst=msg.src)
            if kind == "relay":
                inner = msg.inner
                if inner.dst in self.net.crashed or not self.net.link_up(
                    nid, inner.dst
                ):
                    return None
                return self.net.send(inner.hop(via=nid))
            raise DSMProtocolError(f"node {nid} cannot serve {kind!r}")

        return serve

    # -------------------------------------------------------------- #
    # Wire client: RPC with retry/backoff, then suspect resolution

    def _rpc(
        self,
        src: int,
        dst: int,
        kind: str,
        vpn: int | None = None,
        payload: bytes | None = None,
        vpns: tuple[int, ...] | None = None,
        payloads: tuple[bytes, ...] | None = None,
    ) -> Message:
        message = Message(
            kind, src=src, dst=dst, vpn=vpn, payload=payload,
            vpns=vpns, payloads=payloads,
        )
        prefer_relay = frozenset((src, dst)) in self._partitioned
        backoff = BACKOFF_BASE_CYCLES
        retried = False
        if not prefer_relay:
            attempts = 1 if self._recovering else MAX_RETRIES + 1
            for attempt in range(attempts):
                if attempt:
                    retried = True
                    self.stats.inc("cluster.retries")
                    self.net.clock += backoff
                    backoff *= 2
                reply = self.net.send(message)
                if reply is not None:
                    if retried:
                        # A retry beat a transient loss: the injected
                        # disruption is recovered.
                        self.stats.inc("faults.recovered")
                        self.stats.inc("cluster.retry.recovered")
                    return reply
        if self._recovering:
            raise ClusterTimeoutError(
                f"{kind} to node {dst} unanswered during recovery"
            )
        status = (
            "partitioned" if prefer_relay else self._suspect(src, dst)
        )
        if status == "dead":
            raise NodeCrashedError(
                f"node {dst} declared dead during {kind}"
                + (f" for page {vpn:#x}" if vpn is not None else "")
            )
        reply = self._relay(src, dst, message)
        if reply is not None:
            return reply
        raise ClusterTimeoutError(
            f"{kind} to node {dst} timed out after "
            f"{MAX_RETRIES} retries (partitioned, no relay route)"
        )

    def _relay(self, src: int, dst: int, message: Message) -> Message | None:
        """Route ``message`` through a third node around a cut link."""
        for via in self.live:
            if via in (src, dst):
                continue
            if not self.net.link_up(src, via):
                continue
            reply = self.net.send(
                Message("relay", src=src, dst=via, inner=message)
            )
            if reply is not None:
                self.stats.inc("cluster.relayed")
                return reply
        return None

    def _suspect(self, src: int, dst: int) -> str:
        """Resolve silence from ``dst``: partition or death?

        Witnesses (other live nodes reachable from ``src``) probe the
        suspect directly.  Any successful probe proves the node is up
        and the silence was a cut link; unanimous silence — or no
        reachable witness — declares death.
        """
        self.stats.inc("cluster.suspects")
        node = self.nodes.get(dst)
        if node is None or not node.alive:
            return "dead"
        witnesses = [n for n in self.live if n not in (src, dst)]
        for via in witnesses:
            if not self.net.link_up(src, via):
                continue
            reply = self.net.send(Message("probe", src=via, dst=dst))
            if reply is not None:
                self.stats.inc("cluster.partitions.detected")
                self._partitioned.add(frozenset((src, dst)))
                # The cluster has adapted (relay routing takes over):
                # the injected partition is handled.
                self.stats.inc("faults.recovered")
                return "partitioned"
        self._declare_dead(dst)
        return "dead"

    # -------------------------------------------------------------- #
    # Recovery: declare-dead, handoff, re-replication

    def _declare_dead(self, dead_id: int) -> None:
        start = self.net.clock
        self._recovering = True
        try:
            node = self.nodes.get(dead_id)
            if node is not None:
                node.alive = False
            if dead_id not in self.net.crashed:
                # Ground truth says the node still runs: this is a
                # split-brain declaration.  Record the risk; fencing
                # (the lease wait below) is what keeps it safe.
                self.split_brain_risk = True
                self.stats.inc("cluster.split_brain_declarations")
                self.net.crash(dead_id)
            self.dead.add(dead_id)
            self._missed.pop(dead_id, None)
            self.stats.inc("cluster.node_deaths")
            live = self.live
            if not live:
                raise ClusterUnavailableError("no live nodes remain")
            # Lease fencing: wait out the dead writer's leases before
            # touching its exclusive pages.
            fence = max(
                (
                    entry.lease_until
                    for entry in self.directory.values()
                    if entry.owner == dead_id
                    and entry.state is CopyState.EXCLUSIVE
                ),
                default=0,
            )
            if fence > self.net.clock:
                self.stats.inc("cluster.lease.fence_waits")
                self.net.clock = fence
            live_set = set(live)
            for vpn in self.vpns:
                entry = self.directory[vpn]
                entry.copyset.discard(dead_id)
                self._valid[vpn].discard(dead_id)
                if entry.owner != dead_id:
                    continue
                survivors = sorted(self._valid[vpn] & live_set)
                if survivors:
                    # A valid shared copy survives; its holder inherits.
                    entry.owner = survivors[0]
                else:
                    # The only copy died with its owner: restore the
                    # durable image onto the lowest-id survivor.
                    heir = live[0]
                    heir_node = self.nodes[heir]
                    heir_node.write_page(vpn, self.home[vpn])
                    heir_node._set_local_rights(vpn, Rights.READ)
                    self._valid[vpn] = {heir}
                    entry.owner = heir
                    self.stats.inc("cluster.recovery.restored")
                entry.copyset = set(
                    self._valid[vpn] & live_set
                ) or {entry.owner}
                entry.state = CopyState.SHARED
                entry.lease_until = 0
                self.stats.inc("cluster.handoffs")
            if self.coordinator_id == dead_id:
                self.coordinator_id = live[0]
                self.stats.inc("cluster.elections")
            self._replicate_directory()
            self.stats.inc("faults.recovered")
        finally:
            self._recovering = False
        cycles = self.net.clock - start
        self.recovery_cycles.append(cycles)
        self.stats.inc("cluster.recovery.cycles", cycles)

    def _replicate_directory(self) -> None:
        """Re-replicate directory state from the coordinator (best
        effort, single-shot sends: recovery must terminate)."""
        coord = self.coordinator_id
        self.stats.inc("cluster.dir.replications")
        for peer in self.live:
            if peer == coord:
                continue
            self.net.send(Message("dir_sync", src=coord, dst=peer))

    # -------------------------------------------------------------- #
    # Heartbeats, leases, durability flush

    def tick(self) -> list[int]:
        """One maintenance pulse; returns the vpns flushed durable.

        Flushes every live exclusive page to the home store (renewing
        its owner's lease), exchanges heartbeats, escalates repeated
        misses to suspect resolution, and auto-rejoins dead members
        when configured.  The chaos driver calls this on a fixed
        cadence; serve mode ties it to the scrubber timer.
        """
        self.stats.inc("cluster.ticks")
        flushed = self._flush_exclusive()
        self._heartbeats()
        if self.auto_rejoin:
            for node_id in sorted(self.dead):
                self.rejoin(node_id)
        return flushed

    def _flush_exclusive(self) -> list[int]:
        flushed: list[int] = []
        actor_ids = {node.node_id for node in self._actors()}
        #: owner -> that owner's (vpn, image) flushes for this tick;
        #: they all go to the same coordinator, so they share one wire.
        pending: dict[int, list[tuple[int, bytes]]] = {}
        for vpn in self.vpns:
            entry = self.directory[vpn]
            if entry.state is not CopyState.EXCLUSIVE:
                continue
            owner_id = entry.owner
            if owner_id not in actor_ids:
                continue
            owner = self.nodes[owner_id]
            data = owner.read_page(vpn)
            if data is None:
                continue
            if owner_id == self.coordinator_id:
                # The owner co-hosts the home replica: a local flush.
                self.home[vpn] = data
                self.stats.inc("cluster.writeback.local")
                entry.lease_until = self.net.clock + LEASE_CYCLES
                flushed.append(vpn)
            else:
                pending.setdefault(owner_id, []).append((vpn, data))
        for owner_id, batch in sorted(pending.items()):
            # One writeback_batch per owner per tick: K page images
            # behind a single header and a single ack, instead of K
            # full round trips.  The whole batch renews or fails as
            # one lease-bearing message.
            vpns = tuple(vpn for vpn, _data in batch)
            try:
                if len(batch) == 1:
                    self._rpc(
                        owner_id, self.coordinator_id, "writeback",
                        vpns[0], payload=batch[0][1],
                    )
                else:
                    self._rpc(
                        owner_id, self.coordinator_id, "writeback_batch",
                        vpns=vpns,
                        payloads=tuple(data for _vpn, data in batch),
                    )
            except ClusterError:
                self.stats.inc("cluster.writeback.failed", len(batch))
                continue
            for vpn in vpns:
                self.directory[vpn].lease_until = (
                    self.net.clock + LEASE_CYCLES
                )
                flushed.append(vpn)
        return flushed

    def _heartbeats(self) -> None:
        actors = self._actors()
        actor_ids = {node.node_id for node in actors}
        coord = self.coordinator_id
        pulses: list[tuple[int, int]] = []
        for node in actors:
            nid = node.node_id
            if nid == coord:
                # The coordinator pulses every believed member.
                pulses.extend(
                    (nid, peer) for peer in self.live if peer != nid
                )
            else:
                pulses.append((nid, coord))
        for src, dst in pulses:
            if src not in actor_ids:
                continue  # the prober itself was declared dead mid-loop
            if dst not in {n for n in self.live}:
                continue
            reply = self.net.send(Message("heartbeat", src=src, dst=dst))
            if reply is not None:
                self._missed[dst] = 0
                continue
            misses = self._missed.get(dst, 0) + 1
            self._missed[dst] = misses
            if misses >= HEARTBEAT_MISS_LIMIT:
                self._missed[dst] = 0
                self._suspect(src, dst)

    # -------------------------------------------------------------- #
    # Coherence protocol (Table 1 verbs, now fallible)

    def _handler_for(self, node: ClusterNode):
        def handle(fault) -> bool:
            vpn = node.kernel.params.vpn(fault.vaddr)
            if vpn not in self.directory or not node.alive:
                return False
            try:
                if fault.access is AccessType.WRITE:
                    self.get_writable(node, vpn)
                else:
                    self.get_readable(node, vpn)
                return True
            except ClusterError:
                self.stats.inc("cluster.access_failed")
                return False

        return handle

    def _entry(self, vpn: int) -> LeaseEntry:
        entry = self.directory.get(vpn)
        if entry is None:
            raise DSMProtocolError(
                f"page {vpn:#x} is outside the shared directory"
            )
        return entry

    def _acquire_data(self, node: ClusterNode, vpn: int) -> bytes:
        """A current page image for ``node``, via demotion or fetch.

        Fetching from an EXCLUSIVE owner always *demotes* it first —
        the owner's silent-write window closes before the image leaves,
        and the demote ack syncs the home store, so an aborted caller
        leaves nothing stale behind.
        """
        nid = node.node_id
        entry = self.directory[vpn]
        live = set(self.live)
        owner = entry.owner
        if (
            entry.state is CopyState.EXCLUSIVE
            and owner != nid
            and owner in live
            and owner in self._valid[vpn]
        ):
            reply = self._rpc(nid, owner, "demote", vpn)
            if reply.ok and reply.payload is not None:
                self.home[vpn] = reply.payload
                entry.state = CopyState.SHARED
                entry.lease_until = 0
                return reply.payload
            # Owner had no image (pathological): fall through to home.
        sources = sorted((self._valid[vpn] & live) - {nid})
        if owner in sources:
            sources.remove(owner)
            sources.insert(0, owner)
        for source in sources[:2]:
            try:
                reply = self._rpc(nid, source, "fetch", vpn)
            except NodeCrashedError:
                continue  # recovery re-homed the page; try the next
            if reply.ok and reply.payload is not None:
                return reply.payload
        # SHARED pages always match the home store (the durability
        # contract), so the home image is a correct last resort.
        self.stats.inc("cluster.fetch.from_home")
        return self.home[vpn]

    def get_readable(self, node: ClusterNode, vpn: int) -> None:
        """Table 1 "Get Readable", across the wire and fallibly."""
        entry = self._entry(vpn)
        self.stats.inc("cluster.get_readable")
        nid = node.node_id
        for _ in range(2):
            try:
                data = None
                if nid not in self._valid[vpn]:
                    data = self._acquire_data(node, vpn)
                elif entry.state is CopyState.EXCLUSIVE and entry.owner != nid:
                    # Valid copy but a writer exists elsewhere: demote it.
                    self._acquire_data(node, vpn)
            except NodeCrashedError:
                continue  # directory changed under us; restart the verb
            # Commit: no messages below this line.
            if data is not None:
                node.write_page(vpn, data)
                self._valid[vpn].add(nid)
            entry.state = CopyState.SHARED
            entry.copyset.add(nid)
            entry.lease_until = 0
            node._set_local_rights(vpn, Rights.READ)
            return
        raise ClusterTimeoutError(
            f"get_readable({vpn:#x}) could not complete after recovery"
        )

    def get_writable(self, node: ClusterNode, vpn: int) -> None:
        """Table 1 "Get Writable": exclusive copy, remote invalidates."""
        self.get_writable_range(node, (vpn,))

    def get_writable_range(self, node: ClusterNode, vpns) -> None:
        """"Get Writable" over a page set, fan-out coalesced per node.

        The invalidations for every page a holder node must give up
        travel as ONE ``invalidate_range`` message to that node (single
        pages keep the plain ``invalidate`` wire format), so acquiring
        K shared pages costs one message per holder, not one per
        (holder, page) pair.
        """
        vpns = tuple(dict.fromkeys(vpns))
        if not vpns:
            return
        entries = {vpn: self._entry(vpn) for vpn in vpns}
        self.stats.inc("cluster.get_writable", len(vpns))
        nid = node.node_id
        for _ in range(2):
            try:
                data: dict[int, bytes] = {}
                for vpn in vpns:
                    if nid not in self._valid[vpn]:
                        data[vpn] = self._acquire_data(node, vpn)
                # Coalesce the fan-out: every page a holder loses, in
                # one message to that holder.
                doomed: dict[int, list[int]] = {}
                for vpn in vpns:
                    entry = entries[vpn]
                    for other in sorted(entry.copyset | {entry.owner}):
                        if other == nid or other not in self.live:
                            continue
                        doomed.setdefault(other, []).append(vpn)
                for other, pages in sorted(doomed.items()):
                    try:
                        if len(pages) == 1:
                            self._rpc(nid, other, "invalidate", pages[0])
                        else:
                            self._rpc(
                                nid, other, "invalidate_range",
                                vpns=tuple(pages),
                            )
                    except NodeCrashedError:
                        continue  # a dead holder's copies died with it
            except NodeCrashedError:
                continue  # the data source died; restart the verb
            # Commit: no messages below this line.
            for vpn in vpns:
                entry = entries[vpn]
                if vpn in data:
                    node.write_page(vpn, data[vpn])
                entry.owner = nid
                entry.copyset = {nid}
                entry.state = CopyState.EXCLUSIVE
                entry.lease_until = self.net.clock + LEASE_CYCLES
                self._valid[vpn] = {nid}
            # The local grant is ONE batched verb for the whole set (a
            # single page charges as the per-page verb).
            node._set_local_rights_range(vpns, Rights.RW)
            return
        raise ClusterTimeoutError(
            f"get_writable_range({', '.join(f'{vpn:#x}' for vpn in vpns)}) "
            "could not complete after recovery"
        )

    # -------------------------------------------------------------- #
    # Reconciliation (the scrub pattern at cluster scope)

    def reconcile(self) -> int:
        """Audit every live node against the directory; repair drift."""
        repaired = 0
        for node in self._actors():
            repaired += self._reconcile_node(node)
        return repaired

    def _reconcile_node(self, node: ClusterNode) -> int:
        nid = node.node_id
        repaired = 0
        for vpn in self.vpns:
            entry = self.directory[vpn]
            self.stats.inc("cluster.reconcile.checked")
            member = nid in entry.copyset or entry.owner == nid
            valid = nid in self._valid[vpn]
            if member and not valid and entry.owner != nid:
                # A conservatively-invalidated straggler: drop it from
                # the copyset; it refetches on demand.
                entry.copyset.discard(nid)
                member = False
            if entry.owner == nid and not valid:
                # An owner without a valid image (aborted handoff):
                # restore the durable copy.
                node.write_page(vpn, self.home[vpn])
                self._valid[vpn].add(nid)
                entry.state = CopyState.SHARED
                valid = True
                repaired += 1
                self.stats.inc("cluster.reconcile.repairs")
            if entry.owner == nid and entry.state is CopyState.EXCLUSIVE:
                entitled = Rights.RW
            elif member and valid:
                entitled = Rights.READ
            else:
                entitled = Rights.NONE
            if node.local_rights(vpn) != entitled:
                node._set_local_rights(vpn, entitled)
                repaired += 1
                self.stats.inc("cluster.reconcile.repairs")
        return repaired

    # -------------------------------------------------------------- #
    # Accounting

    def merged_stats(self) -> Stats:
        """A snapshot of ``self.stats``, which every node kernel (a
        rejoined one too), the protocol and the interconnect charge;
        named like :meth:`Kernel.merged_stats
        <repro.os.kernel.Kernel.merged_stats>`."""
        return self.stats.snapshot()
