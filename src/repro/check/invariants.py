"""Structural coherence invariants over the hardware caches.

Callable mid-run against any live kernel: every cached hardware
structure (PLB, TLBs, group holder, data caches) is compared against
the kernel tables that are its source of truth.  A clean kernel returns
an empty list; each violation is a human-readable string naming the
stale entry.

The protection entries are judged by the audit walk the scrubber
repairs from (:func:`repro.faults.scrub.audit`), so what this module
reports and what the scrubber fixes is one rule per model.  The data
caches are checked here only, because they are reported, never
repaired.

The checks are deliberately *structural*, not per-reference: e.g. the
cache invariant is not the literal "no line the current domain can't
access" (a VIVT line legitimately outlives a domain switch — protection
is enforced by the parallel PLB probe, not by flushing), but "every
resident line belongs to a resident page and names that page's current
frame", which is what unmap/page-out coherence actually requires.
"""

from __future__ import annotations

from repro.faults.scrub import audit
from repro.hardware.cache import DataCache


def check_invariants(kernel) -> list[str]:
    """All structural violations in ``kernel``'s hardware state.

    Every CPU's private structures are audited against the shared
    authority; on a multiprocessor each remote CPU's violations are
    prefixed ``cpuN:`` (single-CPU messages are unchanged).  Reads
    charge no counter.
    """
    problems: list[str] = []
    many = kernel.n_cpus > 1
    for ctx in kernel.cpus:
        system = ctx.system
        local = [
            finding.message
            for _, _, _, findings in audit(kernel, system)
            for finding in findings
            if finding.message is not None
        ]
        for cache in (system.dcache, getattr(system, "l2", None)):
            if cache is not None:
                _check_dcache(kernel, cache, local)
        if many:
            problems.extend(f"cpu{ctx.cpu_id}: {text}" for text in local)
        else:
            problems.extend(local)
    return problems


def _check_dcache(kernel, cache: DataCache, problems: list[str]) -> None:
    line_shift = kernel.params.page_bits - kernel.params.line_offset_bits
    peek = kernel.translations.peek
    if cache.org.virtually_tagged:
        for key, line in cache.resident_lines():
            vpn = key[-1] >> line_shift
            pfn = peek(vpn)
            if pfn is None:
                problems.append(
                    f"{cache.name}: holds line of non-resident vpn {vpn:#x}"
                )
            elif line.paddr_line >> line_shift != pfn:
                problems.append(
                    f"{cache.name}: line for vpn {vpn:#x} names frame "
                    f"{line.paddr_line >> line_shift:#x}, table says {pfn:#x}"
                )
    else:
        mapped = {peek(vpn) for vpn in kernel.translations.resident_vpns()}
        for key, line in cache.resident_lines():
            frame = line.paddr_line >> line_shift
            if frame not in mapped:
                problems.append(
                    f"{cache.name}: holds line of frame {frame:#x} which "
                    f"backs no resident page"
                )
