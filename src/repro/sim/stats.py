"""Hierarchical event counters used by every simulated component.

The paper's evaluation compares the two protection models by the *actions*
each operating-system task performs on the hardware structures: entries
inspected, purged and updated, faults taken, registers written.  A
:class:`Stats` object is a flat multiset of dotted counter names
(``"plb.miss"``, ``"kernel.detach.entries_inspected"``) that components
increment as they run.  Counters nest by dotted prefix purely by
convention, which keeps merging and reporting trivial.

The counts live in a plain ``dict``: a bump on it is about half the cost
of one on ``collections.Counter``, whose ``__missing__`` hook runs in
Python.  A missing name still reads 0.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Mapping


class Stats:
    """A named multiset of event counters.

    Counters are created on first increment, so components never need to
    pre-register events.  Supports merging (for multi-node simulations),
    prefix queries and snapshot/delta arithmetic (for measuring a single
    operation inside a longer run).
    """

    def __init__(self, initial: Mapping[str, int] | None = None) -> None:
        self._counts: dict[str, int] = dict(initial) if initial else {}

    def inc(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name`` (created at 0 if missing)."""
        counts = self._counts
        counts[name] = counts.get(name, 0) + amount

    def counter(self, name: str) -> "Callable[[int], None]":
        """An interned handle for one counter: a bound incrementer.

        Hot paths that bump the same counter millions of times should
        intern the handle once (``inc_hit = stats.counter("plb.hit")``)
        and call ``inc_hit()`` per event, skipping the per-call attribute
        lookup, f-string formatting and method dispatch of
        ``stats.inc(f"{name}.hit")``.  The handle stays valid across
        :meth:`clear` (the underlying counter store is never replaced).
        """
        counts = self._counts

        def inc(amount: int = 1) -> None:
            counts[name] = counts.get(name, 0) + amount

        return inc

    def counts_view(self) -> dict[str, int]:
        """The live counter store itself, for trusted bulk reads.

        :func:`~repro.core.costs.cycles_for` prices a whole run from it
        without copying.  The returned object is *the* store, not a
        copy: it stays valid across :meth:`clear` (the store is emptied,
        never replaced), and callers must never remove from it.
        """
        return self._counts

    def inc_many(self, counts: Mapping[str, int]) -> None:
        """Merge a batch of counter increments in one call.

        Adds (does not replace): a precomputed ``{"refs": 1, "plb.hit":
        1, "dcache.hit": 1}`` dict turns an N-counter hot-path update
        into one call.
        """
        own = self._counts
        for name, amount in counts.items():
            own[name] = own.get(name, 0) + amount

    def __getitem__(self, name: str) -> int:
        return self._counts.get(name, 0)

    def get(self, name: str, default: int = 0) -> int:
        return self._counts.get(name, default)

    def __contains__(self, name: str) -> bool:
        return name in self._counts

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._counts))

    def __len__(self) -> int:
        return len(self._counts)

    def items(self) -> Iterable[tuple[str, int]]:
        """All ``(name, count)`` pairs in sorted name order."""
        return sorted(self._counts.items())

    def total(self, prefix: str) -> int:
        """Sum of all counters whose name starts with ``prefix``.

        A trailing dot is implied: ``total("plb")`` sums ``plb.hit``,
        ``plb.miss`` and so on, but also an exact counter named ``plb``.
        """
        dotted = prefix if prefix.endswith(".") else prefix + "."
        return sum(
            count
            for name, count in self._counts.items()
            if name == prefix or name.startswith(dotted)
        )

    def scoped(self, prefix: str) -> "Stats":
        """A copy containing only counters under ``prefix``, prefix kept."""
        dotted = prefix if prefix.endswith(".") else prefix + "."
        return Stats(
            {
                name: count
                for name, count in self._counts.items()
                if name == prefix or name.startswith(dotted)
            }
        )

    def snapshot(self) -> "Stats":
        """An independent copy of the current counts."""
        return Stats(self._counts)

    def delta(self, since: "Stats") -> "Stats":
        """Counters accumulated since the ``since`` snapshot was taken.

        Zero-valued deltas are dropped (the counter did not move), but
        *negative* deltas are kept: a counter that went backwards means
        someone called :meth:`clear` (or mutated a shared Stats object)
        mid-measurement, and hiding that would silently corrupt every
        report built on the delta.  Use :meth:`assert_monotonic` to turn
        such a regression into a hard error.
        """
        own = self._counts
        base = since._counts
        moved = {}
        for name, count in own.items():
            count -= base.get(name, 0)
            if count:
                moved[name] = count
        for name, count in base.items():
            if count and name not in own:
                moved[name] = -count
        return Stats(moved)

    def assert_monotonic(self, since: "Stats") -> None:
        """Raise ``ValueError`` if any counter decreased since ``since``.

        Counters are event counts and must only grow; a decrease means a
        snapshot was taken on one Stats object and compared against
        another, or :meth:`clear` ran mid-measurement.
        """
        decreased = {
            name: self._counts.get(name, 0) - count
            for name, count in since._counts.items()
            if self._counts.get(name, 0) < count
        }
        if decreased:
            detail = ", ".join(
                f"{name} ({amount:+d})" for name, amount in sorted(decreased.items())
            )
            raise ValueError(f"counters went backwards: {detail}")

    def top(self, n: int, prefix: str = "") -> list[tuple[str, int]]:
        """The ``n`` largest counters (optionally under ``prefix``).

        Ties break alphabetically so output is deterministic.
        """
        dotted = prefix if not prefix or prefix.endswith(".") else prefix + "."
        rows = [
            (name, count)
            for name, count in self._counts.items()
            if not prefix or name == prefix.rstrip(".") or name.startswith(dotted)
        ]
        rows.sort(key=lambda item: (-item[1], item[0]))
        return rows[:n]

    def merge(self, other: "Stats") -> None:
        """Fold another Stats object's counts into this one."""
        own = self._counts
        for name, count in other._counts.items():
            own[name] = own.get(name, 0) + count

    def clear(self) -> None:
        self._counts.clear()

    def as_dict(self) -> dict[str, int]:
        """A plain dict copy, for serialization and assertions in tests."""
        return dict(self._counts)

    def report(self, prefix: str = "", indent: str = "") -> str:
        """A sorted, aligned text listing of counters under ``prefix``."""
        rows = [
            (name, count)
            for name, count in self.items()
            if not prefix or name == prefix or name.startswith(prefix + ".")
        ]
        if not rows:
            return indent + "(no events)"
        width = max(len(name) for name, _ in rows)
        return "\n".join(f"{indent}{name:<{width}}  {count:>12}" for name, count in rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Stats({dict(self._counts)!r})"
