"""The shared OS authority: what every CPU agrees on.

A single address space OS has exactly one naming and protection
authority — one global translation table, one segment registry, one set
of protection-domain records and one page-group table (Section 3.2).
Protection *caches* (PLB, TLB, group holders) are per-CPU soft state
rebuilt from here; the authority itself is CPU-agnostic and is shared by
every :class:`~repro.os.smp.CpuContext` of a kernel.

:class:`Authority` owns that state.  The :class:`~repro.os.kernel.Kernel`
aliases the authority's containers under their historical attribute
names (``kernel.translations`` *is* ``kernel.authority.translations``),
so all existing callers — and the fault injector's authority-corruption
site — keep working unchanged.

The authority is range-partitioned into K NUMA-style home shards keyed
by VPN chunk.  The containers and the one segment index stay global
(every verb lands in the same dicts, so recovery, the fault injector
and the differential oracle are untouched); what shards is the
*mutation accounting*: every table mutation is charged to the home
shards it touches, so Table 1 verbs on disjoint segments count as
shard-local instead of serializing on one structure.  The shard map
also places a DSM node's pages on home CPUs.  ``n_shards=1`` charges
no counters.
"""

from __future__ import annotations

import bisect

from repro.core.conventional import LinearPageTable
from repro.core.params import MachineParams, DEFAULT_PARAMS
from repro.hardware.backing import BackingStore
from repro.hardware.memory import PhysicalMemory
from repro.os.domain import ProtectionDomain
from repro.os.pagetable import GlobalTranslationTable, GroupTable
from repro.os.segment import AddressSpaceAllocator, VirtualSegment
from repro.sim.stats import Stats

#: VPN-range chunk size (in address bits above the page number) used to
#: interleave chunks across shards.  2**3 = 8 pages per chunk matches
#: the allocator's power-of-two alignment, so small disjoint segments
#: land on distinct home shards.
SHARD_SPAN_BITS = 3


class Authority:
    """Shared kernel state: tables every CPU's hardware refills from.

    Args:
        n_frames: Physical memory size in page frames.
        params: Machine parameters shared with the hardware.
        stats: The kernel's shared stats sink (authority-side events —
            memory allocation, backing-store traffic, inverted-table
            probes — are charged here, never to a per-CPU context).
        inverted_table: Back the translation table with the 801-style
            inverted page table (§3.1).
        n_shards: VPN-range home shards the mutation accounting charges
            (1 = monolithic, charging nothing).
    """

    def __init__(
        self,
        *,
        n_frames: int = 4096,
        params: MachineParams = DEFAULT_PARAMS,
        stats: Stats,
        inverted_table: bool = False,
        n_shards: int = 1,
    ) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self.params = params
        self.n_shards = n_shards
        self.stats = stats
        self.memory = PhysicalMemory(n_frames, page_size=params.page_size, stats=stats)
        self.backing = BackingStore(stats=stats)
        if inverted_table:
            from repro.os.inverted import InvertedPageTable

            self.translations: GlobalTranslationTable = InvertedPageTable(
                n_frames, stats=stats
            )  # type: ignore[assignment]
        else:
            self.translations = GlobalTranslationTable()
        self.group_table = GroupTable()
        self.allocator = AddressSpaceAllocator()

        self.domains: dict[int, ProtectionDomain] = {}
        self.segments: dict[int, VirtualSegment] = {}
        self.segment_bases: list[int] = []
        self.segments_by_base: dict[int, VirtualSegment] = {}
        #: Conventional-model space-accounting mirrors (per-domain linear
        #: page tables, Section 3.1).  Authoritative (not a cache): the
        #: conventional TLB refills from these.
        self.linear_tables: dict[int, LinearPageTable] = {}
        #: Segments with physically contiguous frames eligible for one
        #: superpage translation: seg_id -> base frame (Section 4.3).
        self.contiguous: dict[int, int] = {}
        self._next_pd = 1
        self._next_seg = 1
        self._next_aid = 1

    # ------------------------------------------------------------------ #
    # Name allocation (the single global namespace)

    def new_pd_id(self) -> int:
        pd_id = self._next_pd
        self._next_pd += 1
        return pd_id

    def new_seg_id(self) -> int:
        seg_id = self._next_seg
        self._next_seg += 1
        return seg_id

    def new_aid(self) -> int:
        aid = self._next_aid
        self._next_aid += 1
        return aid

    # ------------------------------------------------------------------ #
    # Segment registry

    def register_segment(self, segment: VirtualSegment) -> None:
        self.segments[segment.seg_id] = segment
        bisect.insort(self.segment_bases, segment.base_vpn)
        self.segments_by_base[segment.base_vpn] = segment

    def forget_segment(self, segment: VirtualSegment) -> None:
        del self.segments[segment.seg_id]
        self.segment_bases.remove(segment.base_vpn)
        del self.segments_by_base[segment.base_vpn]

    def segment_at(self, vpn: int) -> VirtualSegment | None:
        """The segment containing ``vpn``, if any (binary search)."""
        idx = bisect.bisect_right(self.segment_bases, vpn) - 1
        if idx < 0:
            return None
        segment = self.segments_by_base[self.segment_bases[idx]]
        return segment if segment.contains(vpn) else None

    def attached_domains(self, segment: VirtualSegment) -> list[ProtectionDomain]:
        return [d for d in self.domains.values() if d.is_attached(segment.seg_id)]

    # ------------------------------------------------------------------ #
    # Shard map and per-shard mutation accounting

    def shard_of(self, vpn: int) -> int:
        """Home shard of ``vpn`` (chunk-interleaved VPN range)."""
        return (vpn >> SHARD_SPAN_BITS) % self.n_shards

    def shards_for(self, vpns) -> set[int]:
        k = self.n_shards
        return {(vpn >> SHARD_SPAN_BITS) % k for vpn in vpns}

    def note_mutation(self, vpns) -> None:
        """Charge a table mutation to every home shard ``vpns`` touches.

        Charges ``authority.shard.*`` counters only when K > 1, so a
        single-shard kernel's stats stay byte-identical to the pinned
        baseline.  ``local`` counts mutations confined to one home
        shard (the scalable case); ``cross`` counts mutations spanning
        shards, which a real implementation would have to lock-order.
        """
        if self.n_shards == 1:
            return
        homes = self.shards_for(vpns)
        if not homes:
            return
        self.stats.inc("authority.shard.mutations")
        if len(homes) == 1:
            self.stats.inc("authority.shard.local")
        else:
            self.stats.inc("authority.shard.cross")
