"""S4.1.2 — The sharing/protection-change crossover.

Paper prediction (Section 4.1.2): "A PLB system will take fewer faults
in situations where there is active sharing and frequent protection
changes.  However, it does this at the cost of redundant entries in the
PLB.  The page-group implementation, on the other hand, will incur
fewer TLB misses than the PLB in situations where sharing is static or
protection changes are infrequent."

The bench sweeps the per-round probability of a per-domain protection
change on a shared segment.  At zero churn the page-group system enjoys
its unreplicated TLB; as churn rises, each per-domain change costs the
page-group model a page move into a private group (plus collateral
faults for the other sharers) while the PLB model pays a single entry
update.
"""

from __future__ import annotations

import random

from repro.analysis import benchout
from repro.analysis.report import format_table
from repro.core.costs import cycles_for
from repro.core.mmu import ProtectionFault
from repro.core.rights import Rights
from repro.os.kernel import Kernel
from repro.sim.machine import Machine

DOMAINS = 4
PAGES = 24
ROUNDS = 120
TLB_ENTRIES = 32
CHURN_SWEEP = [0.0, 0.1, 0.3, 0.6, 1.0]


def run_churn(model: str, churn: float, seed: int = 17):
    """Domains read a shared segment; sometimes one domain's rights on
    one page are toggled (a per-domain, per-page protection change)."""
    rng = random.Random(seed)
    kernel = Kernel(model, system_options={"tlb_entries": TLB_ENTRIES}
                    if model != "plb" else {"plb_entries": TLB_ENTRIES,
                                            "tlb_entries": TLB_ENTRIES})
    machine = Machine(kernel)
    segment = kernel.create_segment("shared", PAGES)
    domains = [kernel.create_domain(f"d{i}") for i in range(DOMAINS)]
    for domain in domains:
        kernel.attach(domain, segment, Rights.RW)

    # Workload fault policy: a denied/unattached access re-grants the
    # domain's rights (the churn temporarily revoked them).
    def regrant(fault: ProtectionFault) -> bool:
        vpn = kernel.params.vpn(fault.vaddr)
        if not segment.contains(vpn):
            return False
        domain = kernel.domains[fault.pd_id]
        kernel.set_page_rights(domain, vpn, Rights.RW)
        return True

    kernel.add_protection_handler(regrant)
    before = kernel.stats.snapshot()
    for round_no in range(ROUNDS):
        for domain in domains:
            for _ in range(6):
                vpn = segment.vpn_at(rng.randrange(PAGES))
                machine.read(domain, kernel.params.vaddr(vpn))
        if rng.random() < churn:
            victim = rng.choice(domains)
            vpn = segment.vpn_at(rng.randrange(PAGES))
            kernel.set_page_rights(victim, vpn, Rights.NONE)
    return kernel.stats.delta(before)


def test_report_crossover():
    rows = []
    for churn in CHURN_SWEEP:
        plb = run_churn("plb", churn)
        pg = run_churn("pagegroup", churn)
        assert plb["refs"] > 0 and pg["refs"] > 0
        rows.append(
            [
                churn,
                plb["kernel.fault.protection"],
                pg["kernel.fault.protection"],
                plb["plb.miss"],
                pg["pgtlb.miss"] + pg["group_reload"],
                cycles_for(plb),
                cycles_for(pg),
                "plb" if cycles_for(plb) < cycles_for(pg) else "pagegroup",
            ]
        )
    benchout.record(
        "Section 4.1.2: Sharing vs protection-change-frequency crossover "
        f"({DOMAINS} domains, {PAGES} shared pages, {TLB_ENTRIES}-entry structures)",
        format_table(
            [
                "churn prob",
                "PLB-sys prot faults",
                "PG-sys prot faults",
                "PLB misses",
                "PG TLB misses + reloads",
                "PLB-sys cycles",
                "PG-sys cycles",
                "cheaper",
            ],
            rows,
            title="Paper: PLB wins with active sharing + frequent changes; "
            "page-group wins when sharing is static",
        ),
    )
    # Direction checks at the endpoints.
    static, busiest = rows[0], rows[-1]
    # With no churn both fault equally (warm-up only)...
    assert static[1] == static[2]
    # ...and under heavy churn the page-group system faults more (the
    # private-group moves revoke other sharers).
    assert busiest[2] > busiest[1]
