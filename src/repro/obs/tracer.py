"""Span-based tracing over the shared Stats multiset.

A :class:`Tracer` watches one :class:`~repro.sim.stats.Stats` object and
attributes every counter delta to the innermost open span:

    with tracer.span("kernel.detach", pd=pd_id, seg=seg_id):
        ...  # every Stats increment lands in this span

Spans nest; a span's *inclusive* delta is everything counted between its
enter and exit, and its *exclusive* delta is the inclusive delta minus
its children's.  Because attribution works purely by snapshot
arithmetic, the sum of children's inclusive deltas plus the parent's
exclusive delta reproduces the parent's inclusive delta exactly — no
event is ever double-counted or lost.

The tracer also maintains a *cycle clock*: the running
:func:`~repro.core.costs.cycles_for` total of every event seen so far,
advanced incrementally at span boundaries.  Span start/duration
timestamps are therefore in simulated weighted cycles, which is what the
Chrome-trace exporter uses as its time axis.

Hot-path spans (the per-reference ``mem.access`` span) pass
``sample=True`` and are recorded 1-in-N (``sample_every``); sampled-out
occurrences cost one RNG draw and fold into the enclosing span's
exclusive delta, so totals stay conserved.  Sampling is deterministic
under a fixed ``seed``.  ``sample_every=0`` records no sampled span at
all: the memory systems then leave the reference path unwrapped (see
``MemorySystem.attach_tracer``), and per-reference work folds into the
enclosing verb or request span exactly as sampled-out spans do.

A *disabled* tracer is the shared :data:`NULL_TRACER` singleton whose
``span()`` returns one reusable no-op context manager; instrumented code
that is not being traced pays a single attribute load and method call.
The memory systems go further and bypass even that (see
``MemorySystem.attach_tracer``), so tier-1 benchmarks see near-zero
overhead when tracing is off.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.core.costs import CycleCosts, DEFAULT_COSTS
from repro.sim.stats import Stats


# --------------------------------------------------------------------- #
# The disabled fast path


class _NullSpan:
    """The reusable no-op context manager of a disabled tracer."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """A tracer that records nothing; ``span()`` is a near-free no-op."""

    active = False

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def finish(self) -> list["Span"]:
        return []


#: The shared disabled tracer every component starts with.
NULL_TRACER = NullTracer()


# --------------------------------------------------------------------- #
# Recorded spans


@dataclass
class Span:
    """One completed (or still-open) traced region."""

    name: str
    attrs: dict[str, Any]
    #: Cycle-clock value when the span opened (the Chrome-trace ``ts``).
    start_cycles: int
    #: Nesting depth at open (0 = top level).
    depth: int
    #: Inclusive weighted cycles (children included); set at exit.
    cycles: int = 0
    #: Inclusive counter delta (children included); set at exit.
    delta: dict[str, int] = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)

    @property
    def exclusive_cycles(self) -> int:
        """Cycles attributed to this span alone (children subtracted)."""
        return self.cycles - sum(child.cycles for child in self.children)

    def exclusive_delta(self) -> dict[str, int]:
        """Counter delta attributed to this span alone."""
        own = dict(self.delta)
        for child in self.children:
            for name, count in child.delta.items():
                remaining = own.get(name, 0) - count
                if remaining:
                    own[name] = remaining
                else:
                    own.pop(name, None)
        return own

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, preorder."""
        yield self
        for child in self.children:
            yield from child.walk()


# --------------------------------------------------------------------- #
# The live tracer


class _SpanHandle:
    """Context manager for one recorded span."""

    __slots__ = ("_tracer", "_name", "_attrs", "_span", "_enter_counts")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict[str, Any]) -> None:
        self._tracer = tracer
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> Span:
        tracer = self._tracer
        counts, clock = tracer._advance()
        self._enter_counts = counts
        self._span = Span(
            name=self._name,
            attrs=self._attrs,
            start_cycles=clock,
            depth=len(tracer._stack),
        )
        tracer._stack.append(self._span)
        return self._span

    def __exit__(self, *exc: object) -> bool:
        tracer = self._tracer
        counts, clock = tracer._advance()
        span = self._span
        popped = tracer._stack.pop()
        assert popped is span, "span exit out of order"
        enter = self._enter_counts
        span.delta = {
            name: count - enter.get(name, 0)
            for name, count in counts.items()
            if count != enter.get(name, 0)
        }
        span.cycles = clock - span.start_cycles
        if tracer._stack:
            tracer._stack[-1].children.append(span)
        else:
            tracer.roots.append(span)
        if tracer.metrics is not None:
            tracer.metrics.observe_span(span)
        return False


class Tracer:
    """Records nested spans against one Stats object.

    Args:
        stats: The counter sink shared by the kernel and hardware.
        costs: Cycle weights for the span cycle clock (defaults to the
            table every report uses, so profiler totals line up with
            :func:`~repro.core.costs.cycles_for` exactly).
        sample_every: Record 1-in-N of the spans opened with
            ``sample=True`` (1 = record all, 0 = record none).
        seed: Seed for the sampling RNG — fixed seed, fixed decisions.
        metrics: Optional :class:`~repro.obs.metrics.Metrics` fed one
            observation per recorded span.
    """

    active = True

    def __init__(
        self,
        stats: Stats,
        *,
        costs: CycleCosts = DEFAULT_COSTS,
        sample_every: int = 1,
        seed: int = 0,
        metrics: "Any | None" = None,
    ) -> None:
        if sample_every < 0:
            raise ValueError("sample_every must be >= 0")
        self.stats = stats
        self.costs = costs
        self.sample_every = sample_every
        self.metrics = metrics
        self.roots: list[Span] = []
        #: Spans opened with ``sample=True`` that were not recorded.
        self.sampled_out = 0
        self._rng = random.Random(seed)
        self._stack: list[Span] = []
        self._last_counts: dict[str, int] = stats.as_dict()
        self._clock = 0

    # -- clock ---------------------------------------------------------- #

    def _advance(self) -> tuple[dict[str, int], int]:
        """Fold counter movement since the last event into the clock."""
        counts = self.stats.as_dict()
        last = self._last_counts
        clock = self._clock
        weight_for = self.costs.weight_for
        for name, value in counts.items():
            previous = last.get(name, 0)
            if value != previous:
                weight = weight_for(name)
                if weight:
                    clock += (value - previous) * weight
        self._clock = clock
        self._last_counts = counts
        return counts, clock

    @property
    def clock_cycles(self) -> int:
        """The cycle clock as of the last span boundary."""
        return self._clock

    # -- spans ---------------------------------------------------------- #

    def span(self, name: str, *, sample: bool = False, **attrs: Any):
        """Open a span; use as ``with tracer.span("kernel.attach", ...):``.

        With ``sample=True`` the span is subject to 1-in-N sampling and
        may return the shared no-op handle instead; its events then fold
        into the enclosing span.
        """
        if sample and self.sample_every != 1:
            if not self.sample_every or self._rng.randrange(self.sample_every):
                self.sampled_out += 1
                return _NULL_SPAN
        return _SpanHandle(self, name, attrs)

    def finish(self) -> list[Span]:
        """Close the books: returns the completed top-level spans.

        Open spans are an instrumentation bug; finishing with a
        non-empty stack raises so the bug cannot hide.
        """
        if self._stack:
            names = " > ".join(span.name for span in self._stack)
            raise RuntimeError(f"tracer finished with open spans: {names}")
        return self.roots

    def all_spans(self) -> Iterator[Span]:
        """Every recorded span, preorder."""
        for root in self.roots:
            yield from root.walk()
