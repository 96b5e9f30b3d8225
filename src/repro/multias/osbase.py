"""A conventional multiple-address-space OS (the Section 2.2 foil).

Each process owns a private virtual address space, so the same virtual
address means different things in different processes (homonyms) and the
same physical page can be mapped at different virtual addresses
(synonyms).  Section 2.2 argues these two artifacts are what make
virtually indexed, virtually tagged caches hard to use — and that both
are *impossible* in a single address space.

:class:`MultiASOS` is a deliberately small OS model: processes, private
page tables, ``mmap``-style shared mappings and a VIVT data cache run in
hazard-detection mode, so the benchmark can count the synonym and
homonym incidents that a multi-AS system produces and a SASOS cannot.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.params import MachineParams, DEFAULT_PARAMS
from repro.core.rights import AccessType, Rights
from repro.faults.errors import AddressSpaceError
from repro.hardware.cache import CacheOrg, DataCache
from repro.hardware.memory import PhysicalMemory
from repro.sim.stats import Stats

__all__ = ["AddressSpaceError", "MultiASOS", "Process"]


@dataclass
class Process:
    """One process: a private virtual address space."""

    pid: int
    name: str
    #: Private page table: vpn -> (pfn, rights).
    table: dict[int, tuple[int, Rights]] = field(default_factory=dict)

    def translate(self, vpn: int) -> tuple[int, Rights] | None:
        return self.table.get(vpn)


class MultiASOS:
    """A multi-address-space OS over a VIVT cache with hazard detection.

    Args:
        flush_on_switch: Flush the data cache on every process switch
            (the i860-style homonym fix Section 2.2 lists, with its
            cold-start cost).
        asid_tagged_cache: Extend cache tags with an address-space id
            (the other conventional fix, costing tag bits and creating
            the shared-data synonym problem the paper notes).
    """

    def __init__(
        self,
        *,
        n_frames: int = 1024,
        params: MachineParams = DEFAULT_PARAMS,
        cache_bytes: int = 16 * 1024,
        cache_ways: int = 1,
        flush_on_switch: bool = False,
        asid_tagged_cache: bool = False,
        stats: Stats | None = None,
    ) -> None:
        self.params = params
        self.stats = stats if stats is not None else Stats()
        self.memory = PhysicalMemory(n_frames, page_size=params.page_size, stats=self.stats)
        self.cache = DataCache(
            cache_bytes,
            cache_ways,
            CacheOrg.VIVT,
            params=params,
            asid_tagged=asid_tagged_cache,
            detect_hazards=True,
            stats=self.stats,
        )
        self.flush_on_switch = flush_on_switch
        self.processes: dict[int, Process] = {}
        self._next_pid = 1
        self._current: Process | None = None

    # ------------------------------------------------------------------ #
    # Process and mapping management

    def create_process(self, name: str) -> Process:
        process = Process(pid=self._next_pid, name=name)
        self._next_pid += 1
        self.processes[process.pid] = process
        return process

    def map_private(
        self, process: Process, vpn: int, *, rights: Rights = Rights.RW
    ) -> int:
        """Map a fresh private page at ``vpn``; returns the frame."""
        if vpn in process.table:
            raise AddressSpaceError(f"{process.name} already maps page {vpn:#x}")
        frame = self.memory.allocate(vpn)
        process.table[vpn] = (frame.pfn, rights)
        return frame.pfn

    def map_shared(
        self,
        process: Process,
        vpn: int,
        pfn: int,
        *,
        rights: Rights = Rights.RW,
    ) -> None:
        """Map an existing frame into a process (mmap of shared memory).

        Mapping the same frame at *different* virtual addresses in
        different processes manufactures a synonym; mapping different
        frames at the *same* virtual address manufactures a homonym.
        Both are legal here — that is the point.
        """
        if vpn in process.table:
            raise AddressSpaceError(f"{process.name} already maps page {vpn:#x}")
        if not self.memory.is_allocated(pfn):
            raise AddressSpaceError(f"frame {pfn} is not allocated")
        process.table[vpn] = (pfn, rights)

    # ------------------------------------------------------------------ #
    # Execution

    def switch_to(self, process: Process) -> None:
        if self._current is process:
            return
        self._current = process
        self.stats.inc("multias.switch")
        if self.flush_on_switch:
            self.cache.purge()

    def access(
        self, process: Process, vaddr: int, access: AccessType = AccessType.READ
    ) -> bool:
        """One reference by ``process`` through the VIVT cache; True on a hit.

        The cache checks hazards, so the physical address goes with the
        probe; a miss fills the line.
        """
        self.switch_to(process)
        vpn = self.params.vpn(vaddr)
        mapping = process.translate(vpn)
        if mapping is None:
            raise AddressSpaceError(f"{process.name} has no mapping for {vaddr:#x}")
        pfn, rights = mapping
        if not rights.allows(access):
            raise AddressSpaceError(
                f"{process.name} lacks {access.value} rights at {vaddr:#x}"
            )
        paddr = self.params.vaddr(pfn, self.params.page_offset(vaddr))
        self.stats.inc("multias.refs")
        write = access.is_write
        if self.cache.access(vaddr, paddr, write=write, asid=process.pid):
            return True
        self.cache.fill(vaddr, paddr, write=write, asid=process.pid)
        return False

    # ------------------------------------------------------------------ #
    # Hazard accounting

    @property
    def synonym_hazards(self) -> int:
        return self.stats["dcache.synonym_hazard"]

    @property
    def homonym_hazards(self) -> int:
        return self.stats["dcache.homonym_hazard"]
