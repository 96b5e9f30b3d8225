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

:class:`ShardedAuthority` range-partitions the authority into K
NUMA-style home shards keyed by VPN chunk.  The global containers stay
the single source of truth (every verb still lands in the same dicts,
so recovery, the fault injector and the differential oracle are
untouched); what shards is the *index*: each shard keeps its own
segment index for lock-free reads on the fast path, and every table
mutation is charged to the home shards it touches, so Table 1 verbs on
disjoint segments count as shard-local instead of serializing on one
structure.  ``n_shards=1`` is byte-identical to the monolithic authority
and charges no counters.
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
    """

    def __init__(
        self,
        *,
        n_frames: int = 4096,
        params: MachineParams = DEFAULT_PARAMS,
        stats: Stats,
        inverted_table: bool = False,
    ) -> None:
        self.params = params
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
    # Sharding interface (trivial on the monolithic authority)

    #: Number of VPN-range shards (1 = monolithic).
    n_shards: int = 1

    def shard_of(self, vpn: int) -> int:
        return 0

    def shards_for(self, vpns) -> set[int]:
        return {0}

    def note_mutation(self, vpns) -> None:
        """Record a table mutation against the home shard(s) of ``vpns``.

        Monolithic authority: nothing to track (one structure already
        serializes everything).
        """


#: VPN-range chunk size (in address bits above the page number) used to
#: interleave chunks across shards.  2**3 = 8 pages per chunk matches
#: the allocator's power-of-two alignment, so small disjoint segments
#: land on distinct home shards.
SHARD_SPAN_BITS = 3


class AuthorityShard:
    """One NUMA-style home shard: a segment index.

    The shard does not own table *contents* — translations, groups and
    domain records stay in the shared authority containers.  It owns the
    read-path index: the segments overlapping its VPN chunks, kept
    sorted for binary search.
    """

    __slots__ = ("index", "segment_bases", "segments_by_base")

    def __init__(self, index: int) -> None:
        self.index = index
        self.segment_bases: list[int] = []
        self.segments_by_base: dict[int, VirtualSegment] = {}

    def insert(self, segment: VirtualSegment) -> None:
        if segment.base_vpn in self.segments_by_base:
            return
        bisect.insort(self.segment_bases, segment.base_vpn)
        self.segments_by_base[segment.base_vpn] = segment

    def remove(self, segment: VirtualSegment) -> None:
        if segment.base_vpn not in self.segments_by_base:
            return
        self.segment_bases.remove(segment.base_vpn)
        del self.segments_by_base[segment.base_vpn]

    def segment_at(self, vpn: int) -> VirtualSegment | None:
        idx = bisect.bisect_right(self.segment_bases, vpn) - 1
        if idx < 0:
            return None
        segment = self.segments_by_base[self.segment_bases[idx]]
        return segment if segment.contains(vpn) else None


class ShardedAuthority(Authority):
    """Authority partitioned into K VPN-range home shards.

    Chunks of ``2**SHARD_SPAN_BITS`` pages interleave across shards
    (``shard_of = (vpn >> span) % K``), so consecutive small segments —
    the allocator packs them into adjacent aligned slots — get distinct
    home shards.  A segment spanning multiple chunks registers in every
    shard it overlaps; ``segment_at`` then binary-searches only the home
    shard's (shorter) index, the modeled lock-free read.

    With ``n_shards=1`` every override delegates to the monolithic base
    and charges nothing, keeping single-shard stats byte-identical to
    ``benchmarks/baselines/single_cpu_stats.json``.
    """

    def __init__(
        self,
        *,
        n_frames: int = 4096,
        params: MachineParams = DEFAULT_PARAMS,
        stats: Stats,
        inverted_table: bool = False,
        n_shards: int = 1,
        shard_span_bits: int = SHARD_SPAN_BITS,
    ) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        super().__init__(
            n_frames=n_frames,
            params=params,
            stats=stats,
            inverted_table=inverted_table,
        )
        self.n_shards = n_shards
        self.shard_span_bits = shard_span_bits
        self.shards = [AuthorityShard(i) for i in range(n_shards)]

    # ------------------------------------------------------------------ #
    # Shard topology

    def shard_of(self, vpn: int) -> int:
        """Home shard of ``vpn`` (chunk-interleaved VPN range)."""
        return (vpn >> self.shard_span_bits) % self.n_shards

    def shards_for(self, vpns) -> set[int]:
        span = self.shard_span_bits
        k = self.n_shards
        return {(vpn >> span) % k for vpn in vpns}

    def _shards_overlapping(self, segment: VirtualSegment) -> set[int]:
        first = segment.base_vpn >> self.shard_span_bits
        last = (segment.end_vpn - 1) >> self.shard_span_bits
        if last - first + 1 >= self.n_shards:
            return set(range(self.n_shards))
        return {chunk % self.n_shards for chunk in range(first, last + 1)}

    # ------------------------------------------------------------------ #
    # Segment registry: global containers plus per-shard read indexes

    def register_segment(self, segment: VirtualSegment) -> None:
        super().register_segment(segment)
        if self.n_shards > 1:
            for idx in self._shards_overlapping(segment):
                self.shards[idx].insert(segment)

    def forget_segment(self, segment: VirtualSegment) -> None:
        super().forget_segment(segment)
        if self.n_shards > 1:
            for idx in self._shards_overlapping(segment):
                self.shards[idx].remove(segment)

    def segment_at(self, vpn: int) -> VirtualSegment | None:
        """Lock-free read: binary-search only the home shard's index."""
        if self.n_shards == 1:
            return super().segment_at(vpn)
        return self.shards[self.shard_of(vpn)].segment_at(vpn)

    # ------------------------------------------------------------------ #
    # Per-shard mutation accounting

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
