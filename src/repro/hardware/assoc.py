"""A generic set-associative, LRU-replaced lookup structure.

Every tagged hardware structure in the paper — the protection lookaside
buffer, the various TLB flavours, the Wilkes & Sears page-group cache and
the data-cache tag store — is a set-associative memory with LRU
replacement.  :class:`AssocCache` implements that shape once, keyed by an
arbitrary hashable tag, with full event accounting (hits, misses, fills,
evictions, purges, entries inspected by associative sweeps).

The paper repeatedly prices operations in terms of "inspect each entry in
the PLB and eliminate those that match" (Table 1); :meth:`AssocCache.sweep`
implements exactly that operation and reports how many entries were
inspected and how many removed, so the operating-system layer can charge
those costs faithfully.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Generic, Hashable, Iterator, TypeVar

from repro.sim.stats import Stats

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


def _uncounted(amount: int = 1) -> None:
    """The counter handle of an uncounted store."""


class AssocCache(Generic[K, V]):
    """Set-associative cache of ``key -> value`` with true-LRU replacement.

    Args:
        entries: Total number of entries.  Must be a positive multiple of
            ``ways``.
        ways: Associativity.  ``ways == entries`` gives a fully associative
            structure; ``ways == 1`` is direct mapped.
        name: Counter prefix for the shared :class:`Stats` object.
            ``None`` makes an uncounted store, for a structure that
            accounts for its own events (the PLB and the translation-only
            TLB count one hit or miss per multi-level lookup).
        stats: Event sink.  A private one is created when omitted.
        set_of: Maps a key to its set index input (an int that is reduced
            modulo the number of sets).  Defaults to ``hash``.
    """

    def __init__(
        self,
        entries: int,
        ways: int | None = None,
        *,
        name: str | None = "cache",
        stats: Stats | None = None,
        set_of: Callable[[K], int] | None = None,
    ) -> None:
        ways = entries if ways is None else ways
        if entries <= 0 or ways <= 0:
            raise ValueError("entries and ways must be positive")
        if entries % ways:
            raise ValueError("entries must be a multiple of ways")
        self.entries = entries
        self.ways = ways
        self.n_sets = entries // ways
        self.name = name
        self._set_of = set_of or (lambda key: hash(key))
        # Each set is an OrderedDict ordered from LRU (front) to MRU (back).
        self._sets: list[OrderedDict[K, V]] = [OrderedDict() for _ in range(self.n_sets)]
        # Interned counter handles for the per-reference paths; cold
        # maintenance operations go through :meth:`_count`.
        if name is None:
            self.stats: Stats | None = None
            self._inc_hit = self._inc_miss = _uncounted
            self._inc_fill = self._inc_eviction = _uncounted
        else:
            self.stats = stats if stats is not None else Stats()
            self._inc_hit = self.stats.counter(f"{name}.hit")
            self._inc_miss = self.stats.counter(f"{name}.miss")
            self._inc_fill = self.stats.counter(f"{name}.fill")
            self._inc_eviction = self.stats.counter(f"{name}.eviction")

    def _count(self, event: str, amount: int = 1) -> None:
        if self.stats is not None:
            self.stats.inc(f"{self.name}.{event}", amount)

    # ------------------------------------------------------------------ #
    # Lookup and fill

    def _set_for(self, key: K) -> OrderedDict[K, V]:
        return self._sets[self._set_of(key) % self.n_sets]

    def probe(self, key: K) -> V | None:
        """Probe for ``key``, refreshing its LRU position; counts nothing.

        The one LRU probe: :meth:`lookup` counts around it, and a
        multi-level structure counts one hit or miss per lookup itself.
        """
        entry_set = self._sets[0] if self.n_sets == 1 else self._set_for(key)
        value = entry_set.get(key)
        if value is not None:
            entry_set.move_to_end(key)
        return value

    def lookup(self, key: K) -> V | None:
        """Probe for ``key``; updates LRU order and hit/miss counters."""
        value = self.probe(key)
        if value is None:
            self._inc_miss()
        else:
            self._inc_hit()
        return value

    def peek(self, key: K) -> V | None:
        """Probe without touching LRU state or counters (for inspection)."""
        entry_set = self._sets[0] if self.n_sets == 1 else self._set_for(key)
        return entry_set.get(key)

    def fill(self, key: K, value: V) -> K | None:
        """Insert or update ``key``; returns the evicted key, if any."""
        entry_set = self._set_for(key)
        victim: K | None = None
        if key in entry_set:
            entry_set.move_to_end(key)
        elif len(entry_set) >= self.ways:
            victim, _ = entry_set.popitem(last=False)
            self._inc_eviction()
        entry_set[key] = value
        self._inc_fill()
        return victim

    def update(self, key: K, value: V) -> bool:
        """Overwrite the value of a resident entry in place.

        Returns True when the entry was present.  Models the single-entry
        rights updates the paper credits to the PLB in Table 1; does not
        disturb LRU order (the update is not a use by the program).
        """
        entry_set = self._set_for(key)
        if key not in entry_set:
            return False
        entry_set[key] = value
        self._count("update")
        return True

    # ------------------------------------------------------------------ #
    # Invalidation

    def invalidate(self, key: K) -> bool:
        """Remove one entry by exact key; True if it was resident."""
        entry_set = self._set_for(key)
        if key in entry_set:
            del entry_set[key]
            self._count("invalidate")
            return True
        return False

    def drop(self, key: K) -> bool:
        """Remove one entry without event accounting.

        The repair path for scrubbers and machine-check recovery: fixing
        up corrupted soft state must not be charged as an architectural
        maintenance operation, or repaired runs stop being comparable.
        """
        entry_set = self._set_for(key)
        if key in entry_set:
            del entry_set[key]
            return True
        return False

    def sweep(self, predicate: Callable[[K, V], bool]) -> tuple[int, int]:
        """Inspect every entry, removing those matching ``predicate``.

        This is the "inspect each entry in the PLB and eliminate those that
        match" operation of Table 1.  Returns ``(inspected, removed)`` and
        charges both to the stats object.
        """
        inspected = 0
        removed = 0
        for entry_set in self._sets:
            doomed = []
            for key, value in entry_set.items():
                inspected += 1
                if predicate(key, value):
                    doomed.append(key)
            for key in doomed:
                del entry_set[key]
                removed += 1
        self._count("sweep")
        self._count("sweep_inspected", inspected)
        self._count("sweep_removed", removed)
        return inspected, removed

    def purge(self) -> int:
        """Remove every entry (a full flush); returns entries removed."""
        removed = sum(len(entry_set) for entry_set in self._sets)
        for entry_set in self._sets:
            entry_set.clear()
        self._count("purge")
        self._count("purge_removed", removed)
        return removed

    # ------------------------------------------------------------------ #
    # Introspection

    def __len__(self) -> int:
        return sum(len(entry_set) for entry_set in self._sets)

    def __contains__(self, key: K) -> bool:
        return self.peek(key) is not None

    def items(self) -> Iterator[tuple[K, V]]:
        """All resident ``(key, value)`` pairs, LRU first within each set."""
        for entry_set in self._sets:
            yield from entry_set.items()

    def keys(self) -> Iterator[K]:
        for key, _ in self.items():
            yield key

    @property
    def occupancy(self) -> float:
        """Fraction of entries currently valid."""
        return len(self) / self.entries

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(name={self.name!r}, entries={self.entries}, "
            f"ways={self.ways}, resident={len(self)})"
        )
