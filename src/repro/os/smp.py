"""Per-CPU hardware contexts and the kernel shootdown bus (§4.1.3).

On a multiprocessor SASOS every CPU carries its own protection hardware
— PLB, TLB, page-group holder, L1 cache — while the OS authority
(:mod:`repro.os.authority`) stays shared.  A rights change made on one
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
deliveries are cost-accounted on the kernel stats under
``smp.shootdown.*`` / ``smp.tlb_shootdown.*``.  With one CPU the bus
degenerates to plain local calls and adds no counters — single-CPU stats
stay byte-identical to the pre-SMP simulator.
"""

from __future__ import annotations

from typing import Callable

from repro.core.mmu import MemorySystem
from repro.sim.stats import Stats

#: Message kinds.
PROTECTION = "protection"
TRANSLATION = "translation"


class CpuContext:
    """One CPU's private hardware: memory system (PLB/TLB/holder/L1)
    and stats sink.

    CPU 0 shares the kernel's stats object (so single-CPU runs charge
    exactly where the pre-SMP simulator did); remote CPUs get their own
    sink, merged deterministically by ``Kernel.merged_stats``.
    """

    __slots__ = ("cpu_id", "system", "stats")

    def __init__(self, cpu_id: int, system: MemorySystem, stats: Stats) -> None:
        self.cpu_id = cpu_id
        self.system = system
        self.stats = stats

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CpuContext(cpu {self.cpu_id}, {self.system.model_name})"


class ShootdownMessage:
    """One invalidation in flight to one CPU.

    ``fire()`` applies the model-specific action against the target
    CPU's hardware; it is safe to call late (the fault injector's
    ``delay`` events hold messages and fire them several workload ops
    after they were sent).
    """

    __slots__ = ("kind", "verb", "cpu", "remote", "pages", "_action", "_kernel")

    def __init__(
        self,
        kernel,
        kind: str,
        verb: str,
        cpu: int,
        action: Callable[[MemorySystem], int],
        *,
        remote: bool,
        pages: tuple[int, ...] | None = None,
    ) -> None:
        self.kind = kind
        self.verb = verb
        self.cpu = cpu
        self.remote = remote
        #: The VPN set a batched (range) message covers, or ``None`` for
        #: a classic single-invalidation message.  The action already
        #: closes over the set; this is carried for observability and so
        #: the fault injector intercepts the batch as one unit.
        self.pages = pages
        self._action = action
        self._kernel = kernel

    def fire(self) -> int:
        """Deliver: apply the invalidation on the target CPU."""
        kernel = self._kernel
        ctx = kernel.cpus[self.cpu]
        entries = int(self._action(ctx.system) or 0)
        if self.remote:
            prefix = "smp.shootdown" if self.kind == PROTECTION else "smp.tlb_shootdown"
            kernel.stats.inc(f"{prefix}.entries", entries)
        return entries

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = f"cpu {self.cpu}" + (" (remote)" if self.remote else "")
        span = f", {len(self.pages)} pages" if self.pages is not None else ""
        return f"ShootdownMessage({self.verb}, {self.kind}, {where}{span})"


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
        #: it degenerates to the legacy one-message-per-page loop — the
        #: ``--no-batch`` A/B measurement path.
        self.batch = True

    def shootdown(
        self,
        verb: str,
        action: Callable[[MemorySystem], int],
        *,
        kind: str = PROTECTION,
        predicate: Callable[[CpuContext], bool] | None = None,
        include_local: bool = True,
        pages: tuple[int, ...] | None = None,
    ) -> None:
        """Apply ``action`` locally, then broadcast it to remote CPUs.

        ``action(system) -> entries`` performs the model's hardware
        invalidation against one CPU's structures and returns how many
        entries it touched.  ``predicate`` restricts delivery to CPUs
        where it holds (e.g. holder drops only reach CPUs running the
        revoked domain).  ``include_local=False`` broadcasts to remotes
        only (used when the verb already did the local work itself).
        ``pages`` annotates range verbs whose single action already
        covers a page span (detach, segment rights sweeps) — it changes
        no accounting, only what the message carries.
        """
        kernel = self.kernel
        cpus = kernel.cpus
        local_id = kernel.current_cpu
        if include_local and (predicate is None or predicate(cpus[local_id])):
            self._deliver(
                ShootdownMessage(
                    kernel, kind, verb, local_id, action, remote=False, pages=pages
                )
            )
        if len(cpus) == 1:
            return
        stats = kernel.stats
        for ctx in cpus:
            if ctx.cpu_id == local_id:
                continue
            if predicate is not None and not predicate(ctx):
                continue
            prefix = "smp.shootdown" if kind == PROTECTION else "smp.tlb_shootdown"
            stats.inc(f"{prefix}.msgs")
            stats.inc(f"{prefix}.verb.{verb}")
            self._deliver(
                ShootdownMessage(
                    kernel, kind, verb, ctx.cpu_id, action, remote=True, pages=pages
                )
            )

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
        """Coalesce a multi-page verb into ONE message per target CPU.

        ``action_factory(pages) -> action`` builds the invalidation that
        applies a whole VPN batch to one CPU's hardware in one action
        (the per-model range fast paths in ``core/plb.py``,
        ``hardware/tlb.py`` etc.).  Each eligible remote CPU receives one
        message carrying the full page set — so a K-page verb costs one
        IPI, not K.  The injector intercepts the batch as a unit: a drop
        loses the whole batch, a delay replays it atomically.

        With ``bus.batch`` False this degenerates to the legacy per-page
        loop (one classic :meth:`shootdown` per page, identical legacy
        accounting) — the ``--no-batch`` comparison path.
        """
        pages = tuple(pages)
        if not pages:
            return
        if not self.batch:
            for vpn in pages:
                self.shootdown(
                    verb,
                    action_factory((vpn,)),
                    kind=kind,
                    predicate=predicate,
                    include_local=include_local,
                )
            return
        kernel = self.kernel
        cpus = kernel.cpus
        local_id = kernel.current_cpu
        action = action_factory(pages)
        if include_local and (predicate is None or predicate(cpus[local_id])):
            self._deliver(
                ShootdownMessage(
                    kernel, kind, verb, local_id, action, remote=False, pages=pages
                )
            )
        if len(cpus) == 1:
            return
        stats = kernel.stats
        prefix = "smp.shootdown" if kind == PROTECTION else "smp.tlb_shootdown"
        for ctx in cpus:
            if ctx.cpu_id == local_id:
                continue
            if predicate is not None and not predicate(ctx):
                continue
            stats.inc(f"{prefix}.msgs")
            stats.inc(f"{prefix}.verb.{verb}")
            stats.inc(f"{prefix}.batches")
            stats.inc(f"{prefix}.batched_entries", len(pages))
            self._deliver(
                ShootdownMessage(
                    kernel, kind, verb, ctx.cpu_id, action, remote=True, pages=pages
                )
            )

    def broadcast_remote(
        self,
        verb: str,
        action: Callable[[MemorySystem], int],
        *,
        kind: str = PROTECTION,
        predicate: Callable[[CpuContext], bool] | None = None,
    ) -> None:
        """Broadcast to remote CPUs only (local work already done)."""
        self.shootdown(verb, action, kind=kind, predicate=predicate, include_local=False)

    def _deliver(self, message: ShootdownMessage) -> None:
        hook = self.hook
        if hook is not None and message.kind == PROTECTION and hook(message):
            return  # intercepted: dropped, or held for delayed replay
        message.fire()


# --------------------------------------------------------------------- #
# Per-CPU counter views


def per_cpu_stats(kernel) -> Stats:
    """All CPUs' counters in one Stats, remote CPUs prefixed ``cpuN:``.

    CPU 0 shares the kernel's own stats object, so its counters keep the
    unprefixed single-CPU names; remote CPUs' private sinks are folded in
    under the same ``cpuN:`` prefix the invariant checker uses.  This is
    the per-CPU dimension live collectors expose, complementary to
    :meth:`Kernel.merged_stats` which sums all CPUs namelessly.
    """
    out = Stats()
    for ctx in kernel.cpus:
        if ctx.stats is kernel.stats:
            out.inc_many(ctx.stats.as_dict())
        else:
            out.inc_many(
                {
                    f"cpu{ctx.cpu_id}:{name}": count
                    for name, count in ctx.stats.as_dict().items()
                }
            )
    return out
