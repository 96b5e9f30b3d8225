"""Processor control registers for the two protection models.

The domain-page model needs exactly one protected register: the PD-ID
register naming the currently executing protection domain (Section 3.2.1).
The PA-RISC page-group model holds the current domain's accessible
page-groups in a small file of PID registers, each carrying a
write-disable bit (Figure 2 / Section 3.2.2).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.stats import Stats

#: The universally accessible page-group: an AID of zero matches every
#: domain (Section 3.2.2, "there is a page-group that is global to all
#: domains (group 0)").
GLOBAL_PAGE_GROUP = 0


class PDIDRegister:
    """The protection-domain-identifier control register.

    A protection domain switch on a PLB-based system "requires changing
    only a single register" (Section 4.1.4); every write is counted so the
    domain-switch benchmarks can report exactly that cost.

    ``value`` is a plain attribute because every reference reads it;
    change it only through :meth:`write`, which validates and counts.
    """

    def __init__(self, stats: Stats | None = None) -> None:
        self.stats = stats if stats is not None else Stats()
        self.value = 0

    def write(self, pd_id: int) -> None:
        if pd_id < 0:
            raise ValueError("PD-ID must be non-negative")
        self.value = pd_id
        self.stats.inc("pdid.write")


@dataclass(frozen=True)
class PIDEntry:
    """One PID register: a page-group number plus a write-disable bit.

    ``write_disable`` models the D bit of Figure 2: when set, writes to the
    whole page-group are disallowed for this domain regardless of the
    rights field in the TLB entry.
    """

    group: int
    write_disable: bool = False


#: The entry group 0 matches with: it is global and needs no register.
GLOBAL_PID_ENTRY = PIDEntry(GLOBAL_PAGE_GROUP)


class PIDRegisterFile:
    """The PA-RISC's file of four page-group (PID) registers.

    The real architecture exposes exactly four such registers and no
    replacement policy; the operating system must multiplex larger
    page-group working sets over them by trap-and-reload.  The paper's
    evaluation replaces this file with an LRU cache (see
    :class:`repro.core.pagegroup.PageGroupCache`); the register file is
    kept for the ablation comparing the two (ABL-PGCACHE in DESIGN.md).
    """

    def __init__(self, size: int = 4, stats: Stats | None = None) -> None:
        if size <= 0:
            raise ValueError("register file needs at least one register")
        self.size = size
        self.stats = stats if stats is not None else Stats()
        self._slots: list[PIDEntry | None] = [None] * size
        self._next_victim = 0

    def load(self, slot: int, entry: PIDEntry | None) -> None:
        """Write one register, as the kernel does on a reload trap."""
        if not 0 <= slot < self.size:
            raise IndexError(f"PID slot {slot} out of range 0..{self.size - 1}")
        self._slots[slot] = entry
        self.stats.inc("pid.write")

    def install(self, entry: PIDEntry) -> int:
        """Install a group into some register, round-robin on overflow.

        Returns the slot used.  If the group is already resident its entry
        is refreshed in place (the write-disable bit may have changed).
        """
        slot = self._slot_of(entry.group)
        if slot is not None:
            self.load(slot, entry)
            return slot
        for slot, existing in enumerate(self._slots):
            if existing is None:
                self.load(slot, entry)
                return slot
        slot = self._next_victim
        self._next_victim = (self._next_victim + 1) % self.size
        self.stats.inc("pid.replace")
        self.load(slot, entry)
        return slot

    def invalidate(self, group: int) -> bool:
        """Clear a group's register if resident (a counted register write)."""
        slot = self._slot_of(group)
        if slot is None:
            return False
        self.load(slot, None)
        return True

    def drop(self, group: int) -> bool:
        """Clear a group's register without accounting (scrub repair path)."""
        slot = self._slot_of(group)
        if slot is None:
            return False
        self._slots[slot] = None
        return True

    def _slot_of(self, group: int) -> int | None:
        for slot, existing in enumerate(self._slots):
            if existing is not None and existing.group == group:
                return slot
        return None

    def find(self, group: int) -> PIDEntry | None:
        """The resident entry for ``group``, or None.

        Group 0 always matches: it is global to all domains and needs no
        register.
        """
        if group == GLOBAL_PAGE_GROUP:
            return GLOBAL_PID_ENTRY
        for existing in self._slots:
            if existing is not None and existing.group == group:
                return existing
        return None

    def clear(self) -> int:
        """Empty the whole file (on a domain switch); returns writes done."""
        writes = 0
        for slot in range(self.size):
            if self._slots[slot] is not None:
                self.load(slot, None)
                writes += 1
        return writes

    def resident_groups(self) -> list[int]:
        return [entry.group for entry in self._slots if entry is not None]

    def resident_entries(self) -> list[PIDEntry]:
        """The loaded PID entries, for invariant checks (no stats)."""
        return [entry for entry in self._slots if entry is not None]

    def __contains__(self, group: int) -> bool:
        return self.find(group) is not None
