"""S4.3 — Protection granularity decoupled from translation granularity.

Paper predictions (Section 4.3):

* *Larger* protection pages: "Many segments, such as stacks, temporary
  heaps and code segments, span many pages, yet have a constant
  protection value for the entire segment.  For these segments, a
  single PLB entry could map the entire region" — fewer entries, fewer
  PLB misses, and the sharing-duplication bill shrinks.
* *Smaller* protection pages: sub-page units (the IBM 801's 128-byte
  lock granules) remove false sharing in transactional locking.
"""

from __future__ import annotations

from repro.analysis import benchout
from repro.analysis.report import format_table
from repro.core.rights import AccessType, Rights
from repro.os.kernel import Kernel
from repro.sim.machine import Machine

SEGMENTS = 6
PAGES_PER_SEGMENT = 16  # power of two: one aligned superpage each
SHARERS = 3


def run_superpage(levels: tuple[int, ...], plb_entries: int = 32):
    """Several domains share several uniform segments; count PLB traffic."""
    kernel = Kernel(
        "plb", system_options={"plb_entries": plb_entries, "plb_levels": levels}
    )
    machine = Machine(kernel)
    segments = [
        kernel.create_segment(f"s{i}", PAGES_PER_SEGMENT) for i in range(SEGMENTS)
    ]
    domains = [kernel.create_domain(f"d{i}") for i in range(SHARERS)]
    for domain in domains:
        for segment in segments:
            kernel.attach(domain, segment, Rights.RW)
    before = kernel.stats.snapshot()
    for repeat in range(3):
        for domain in domains:
            for segment in segments:
                for vpn in segment.vpns():
                    machine.read(domain, kernel.params.vaddr(vpn))
    return kernel, kernel.stats.delta(before)


def test_report_superpage_protection():
    base_kernel, base = run_superpage((0,))
    super_kernel, superpage = run_superpage((4, 0))
    assert base["refs"] > 0 and superpage["refs"] > 0
    rows = [
        [
            "page-grain (base)",
            base["plb.miss"],
            base["plb.fill"],
            len(base_kernel.system.plb),
            f"{base['plb.hit'] / base['refs'] * 100:.1f}%",
        ],
        [
            "16-page superpage entries",
            superpage["plb.miss"],
            superpage["plb.fill"],
            len(super_kernel.system.plb),
            f"{superpage['plb.hit'] / superpage['refs'] * 100:.1f}%",
        ],
    ]
    benchout.record(
        "Section 4.3: Superpage protection entries "
        f"({SHARERS} domains x {SEGMENTS} uniform {PAGES_PER_SEGMENT}-page segments, "
        "32-entry PLB)",
        format_table(
            ["PLB configuration", "PLB misses", "PLB fills",
             "entries resident", "PLB hit rate"],
            rows,
            title="One entry per (domain,segment) instead of per (domain,page)",
        ),
    )
    # Direction: superpage entries slash misses and fills.
    assert superpage["plb.fill"] < base["plb.fill"] / 4
    assert superpage["plb.miss"] < base["plb.miss"]


def test_report_subpage_locking():
    """Sub-page protection removes transactional false sharing.

    Runs the lock protocol directly against the PLB structure at page
    and 128-byte protection granularity: a touch whose rights are not
    cached faults; acquiring a lock held by the other transaction is a
    (false-sharing) conflict and revokes the holder's entry.
    """
    from repro.core.plb import ProtectionLookasideBuffer

    def run(level: int, unit_bytes: int):
        plb = ProtectionLookasideBuffer(64, levels=(level,))
        held: dict[int, int] = {}  # protection unit -> holder pd
        conflicts = 0
        grants = 0
        accesses = []
        # Two transactions lock *different* 128-byte records that share
        # pages: pd 1 takes the even records, pd 2 the odd ones.
        for round_no in range(40):
            vaddr = 0x100000 + (round_no % 16) * 256
            accesses.append((1, vaddr))
            accesses.append((2, vaddr + 128))
        for pd, vaddr in accesses:
            rights = plb.lookup(pd, vaddr)
            if rights is not None and rights.allows(AccessType.WRITE):
                continue  # lock already held
            unit = vaddr // unit_bytes
            owner = held.get(unit)
            if owner is not None and owner != pd:
                conflicts += 1
                plb.invalidate(owner, vaddr)  # steal: revoke the holder
            held[unit] = pd
            grants += 1
            plb.fill(pd, vaddr, Rights.RW, level=level)
        return conflicts, grants

    page_conflicts, page_grants = run(0, 4096)
    sub_conflicts, sub_grants = run(-5, 128)
    benchout.record(
        "Section 4.3: Sub-page (128 B) protection for transactional locks",
        format_table(
            ["protection unit", "lock grants", "false-sharing conflicts"],
            [
                ["4 KB page", page_grants, page_conflicts],
                ["128 B (801-style)", sub_grants, sub_conflicts],
            ],
            title="Two transactions locking adjacent 128 B records "
            "(paper: page grain is 'too coarse-grained for many VM uses')",
        ),
    )
    assert page_conflicts > 0
    assert sub_conflicts == 0
