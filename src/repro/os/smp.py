"""Per-CPU hardware contexts and the kernel shootdown bus (§4.1.3).

On a multiprocessor SASOS every CPU carries its own protection hardware
— PLB, TLB, page-group holder, L1 cache — while the OS authority (the
kernel's tables) stays shared.  A rights change made on one
CPU must therefore reach every other CPU's cached copies: the kernel
sends *shootdown* messages (the interprocessor-interrupt + invalidate
sequence of §4.1.3), and the number of remote entries each model must
touch is exactly what the paper's consistency argument ranks — the PLB
changes one entry per page, the page-group TLB one entry per page, the
conventional TLB one entry per *sharing domain*.

Two message kinds travel the bus:

* ``protection`` — rights/holder invalidations.  These are the fault
  injector's shootdown site: an armed injector may drop or delay them
  (see :mod:`repro.faults.plan`), modelling lost or late IPIs.
* ``translation`` — unmap-driven TLB/cache invalidations.  These are
  **never** interceptable: a dropped translation shootdown would let a
  CPU read a released frame, which is a harness crash, not a modelled
  fault.

Delivery to the issuing CPU is synchronous and free (the local
invalidate is part of the verb, exactly as on one CPU); remote
deliveries are cost-accounted under ``smp.shootdown.*`` /
``smp.tlb_shootdown.*`` on the kernel's one stats store, which every
CPU's hardware charges too.  With one CPU the bus
degenerates to plain local calls and adds no counters — single-CPU stats
stay byte-identical to the pre-SMP simulator.
"""

from __future__ import annotations

from typing import Callable

from repro.core.mmu import MemorySystem

#: Message kinds.
PROTECTION = "protection"
TRANSLATION = "translation"


class CpuContext:
    """One CPU's private hardware: memory system (PLB/TLB/holder/L1).

    Counters are not private: every CPU's memory system charges the
    kernel's one ``stats`` store, so a span or a request priced on that
    store sees the remote CPUs' work too.
    """

    __slots__ = ("cpu_id", "system")

    def __init__(self, cpu_id: int, system: MemorySystem) -> None:
        self.cpu_id = cpu_id
        self.system = system

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CpuContext(cpu {self.cpu_id}, {self.system.model_name})"


class ShootdownMessage:
    """One invalidation in flight to one CPU.

    ``fire()`` applies the model-specific action against the target
    CPU's hardware; it is safe to call late (the fault injector's
    ``delay`` events hold messages and fire them several workload ops
    after they were sent).
    """

    __slots__ = ("kind", "verb", "cpu", "remote", "_action", "_kernel")

    def __init__(
        self,
        kernel,
        kind: str,
        verb: str,
        cpu: int,
        action: Callable[[MemorySystem], int],
        *,
        remote: bool,
    ) -> None:
        self.kind = kind
        self.verb = verb
        self.cpu = cpu
        self.remote = remote
        self._action = action
        self._kernel = kernel

    def fire(self) -> int:
        """Deliver: apply the invalidation on the target CPU."""
        kernel = self._kernel
        ctx = kernel.cpus[self.cpu]
        entries = int(self._action(ctx.system) or 0)
        if self.remote:
            kernel.stats.inc(_ENTRIES[self.kind], entries)
        return entries

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = f"cpu {self.cpu}" + (" (remote)" if self.remote else "")
        return f"ShootdownMessage({self.verb}, {self.kind}, {where})"


#: Remote-delivery counter family of each message kind.
_FAMILY = {PROTECTION: "smp.shootdown", TRANSLATION: "smp.tlb_shootdown"}
_ENTRIES = {kind: f"{family}.entries" for kind, family in _FAMILY.items()}


class ShootdownBus:
    """Routes every Table 1 invalidation to the CPUs that must see it.

    ``hook`` is the fault injector's interception point: when set, every
    *protection* message is offered to it before delivery and a truthy
    return swallows the message (the injector either dropped it or
    queued it for delayed replay).  Translation messages bypass the hook
    unconditionally — that is the "translation invalidations are never
    wrapped" contract, now enforced structurally.
    """

    def __init__(self, kernel) -> None:
        self.kernel = kernel
        #: Injector hook: ``fn(message) -> bool`` (True = intercepted).
        self.hook: Callable[[ShootdownMessage], bool] | None = None
        #: When True (the default), :meth:`shootdown_range` coalesces a
        #: multi-page verb into one message per target CPU.  When False
        #: it sends K one-page messages instead — the legacy twin that
        #: :func:`repro.analysis.consistency.measure_batched` prices the
        #: K-fold batching saving against.
        self.batch = True

    def shootdown(
        self,
        verb: str,
        action: Callable[[MemorySystem], int],
        *,
        kind: str = PROTECTION,
        predicate: Callable[[CpuContext], bool] | None = None,
        include_local: bool = True,
    ) -> None:
        """Apply ``action`` locally, then broadcast it to remote CPUs.

        ``action(system) -> entries`` performs the model's hardware
        invalidation against one CPU's structures and returns how many
        entries it touched.  ``predicate`` restricts delivery to CPUs
        where it holds (e.g. holder drops only reach CPUs running the
        revoked domain).  ``include_local=False`` broadcasts to remotes
        only (used when the verb already did the local work itself).
        """
        self._send(verb, action, kind, predicate, include_local, None)

    def shootdown_range(
        self,
        verb: str,
        pages,
        action_factory: Callable[[tuple[int, ...]], Callable[[MemorySystem], int]],
        *,
        kind: str = PROTECTION,
        predicate: Callable[[CpuContext], bool] | None = None,
        include_local: bool = True,
    ) -> None:
        """Coalesce a K-page verb into ONE message per target CPU.

        ``action_factory(pages) -> action`` builds the invalidation that
        applies a whole VPN batch to one CPU's hardware in one action
        (the per-model range fast paths in ``core/plb.py``,
        ``hardware/tlb.py`` etc.).  Each eligible remote CPU receives one
        message covering the full page set — so a K-page verb costs one
        IPI, not K — and charges ``batches`` and ``batched_entries``.
        The injector intercepts the batch as a unit: a drop loses the
        whole batch, a delay replays it atomically.

        One page is no batch: it crosses as a single-page verb's message
        and charges no batch counters.  With ``bus.batch`` False every
        page crosses that way — K one-page messages, the legacy twin of
        :func:`repro.analysis.consistency.measure_batched`.
        """
        pages = tuple(pages)
        if not pages:
            return
        batches = (pages,) if self.batch else [(vpn,) for vpn in pages]
        for batch in batches:
            self._send(verb, action_factory(batch), kind, predicate, include_local, batch)

    def _send(
        self,
        verb: str,
        action: Callable[[MemorySystem], int],
        kind: str,
        predicate: Callable[[CpuContext], bool] | None,
        include_local: bool,
        pages: tuple[int, ...] | None,
    ) -> None:
        """The one delivery loop: the issuing CPU first, for free, then
        one costed message to each eligible remote CPU in CPU order.

        ``pages`` is the range batch the action covers, or ``None`` for
        a :meth:`shootdown`; only a batch of two or more pages charges
        the batch counters.
        """
        kernel = self.kernel
        cpus = kernel.cpus
        local_id = kernel.current_cpu
        if include_local and (predicate is None or predicate(cpus[local_id])):
            self._deliver(
                ShootdownMessage(kernel, kind, verb, local_id, action, remote=False)
            )
        if len(cpus) == 1:
            return
        inc = kernel.stats.inc
        family = _FAMILY[kind]
        msgs, by_verb = f"{family}.msgs", f"{family}.verb.{verb}"
        batched = pages is not None and len(pages) > 1
        if batched:
            batches, batched_entries = f"{family}.batches", f"{family}.batched_entries"
        for ctx in cpus:
            if ctx.cpu_id == local_id or (predicate is not None and not predicate(ctx)):
                continue
            inc(msgs)
            inc(by_verb)
            if batched:
                inc(batches)
                inc(batched_entries, len(pages))
            self._deliver(
                ShootdownMessage(kernel, kind, verb, ctx.cpu_id, action, remote=True)
            )

    def _deliver(self, message: ShootdownMessage) -> None:
        hook = self.hook
        if hook is not None and message.kind == PROTECTION and hook(message):
            return  # intercepted: dropped, or held for delayed replay
        message.fire()
