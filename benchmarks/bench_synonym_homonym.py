"""S2.2 — Synonyms and homonyms: multi-AS hazards vs SASOS immunity.

Paper prediction (Section 2.2): a multiple-address-space OS over a VIVT
cache manufactures synonym (coherence) and homonym (wrong-data) hazards;
the classical fixes each cost something (flushing destroys cache state,
ASID tags widen lines and re-admit synonyms).  "Neither synonyms nor
homonyms need exist on a single address space system."
"""

from __future__ import annotations

from repro.analysis import benchout
from repro.analysis.report import format_table
from repro.core.rights import AccessType, Rights
from repro.multias.osbase import MultiASOS
from repro.os.kernel import Kernel
from repro.sim.machine import Machine

PROCS = 4
SHARED_PAGES = 8
ROUNDS = 6


def run_multias(*, flush_on_switch=False, asid_tagged=False):
    """Processes share one region mapped at per-process addresses, plus
    a private page at a common address (the homonym)."""
    os = MultiASOS(
        flush_on_switch=flush_on_switch,
        asid_tagged_cache=asid_tagged,
        cache_ways=8,
    )
    procs = [os.create_process(f"p{i}") for i in range(PROCS)]
    frames = [os.map_private(procs[0], 0x1000 + i) for i in range(SHARED_PAGES)]
    # mmap the shared frames at process-specific addresses (synonyms).
    # Bases are shifted by an odd page count so each process's view of
    # a frame lands in a different cache set and the copies coexist.
    bases = [0x1000 + index * (SHARED_PAGES + 1) for index in range(PROCS)]
    for index, proc in enumerate(procs[1:], start=1):
        for offset, pfn in enumerate(frames):
            os.map_shared(proc, bases[index] + offset, pfn)
    for proc in procs:
        os.map_private(proc, 0x9000)  # same VA, distinct frames: homonyms

    def line_offset(offset: int) -> int:
        # A fixed intra-page offset per shared frame: every process
        # touches the *same physical line*, and different frames spread
        # across cache sets.
        return ((offset + 1) * 5 * 32) % 4096

    for _ in range(ROUNDS):
        for index, proc in enumerate(procs):
            for offset in range(SHARED_PAGES):
                vaddr = ((bases[index] + offset) << 12) | line_offset(offset)
                os.access(proc, vaddr, AccessType.WRITE)
            os.access(proc, 0x9000 << 12)
    return os


def run_sasos():
    """The same sharing pattern in a single address space."""
    kernel = Kernel(
        "plb", system_options={"detect_hazards": True, "cache_ways": 8}
    )
    machine = Machine(kernel)
    shared = kernel.create_segment("shared", SHARED_PAGES)
    domains = [kernel.create_domain(f"d{i}") for i in range(PROCS)]
    privates = []
    for domain in domains:
        kernel.attach(domain, shared, Rights.RW)
        private = kernel.create_segment(f"priv-{domain.pd_id}", 1)
        kernel.attach(domain, private, Rights.RW)
        privates.append(private)
    for _ in range(ROUNDS):
        for domain, private in zip(domains, privates):
            for offset, vpn in enumerate(shared.vpns()):
                line = ((offset + 1) * 5 * 32) % 4096
                machine.write(domain, kernel.params.vaddr(vpn, line))
            machine.read(domain, kernel.params.vaddr(private.base_vpn))
    return kernel


def test_report_synonym_homonym():
    plain = run_multias()
    flushing = run_multias(flush_on_switch=True)
    tagged = run_multias(asid_tagged=True)
    sasos = run_sasos()
    rows = []
    for label, stats, refs_key in [
        ("multi-AS / VIVT plain", plain.stats, "multias.refs"),
        ("multi-AS / flush-on-switch", flushing.stats, "multias.refs"),
        ("multi-AS / ASID-tagged lines", tagged.stats, "multias.refs"),
        ("SASOS / VIVT (PLB system)", sasos.stats, "refs"),
    ]:
        refs = stats[refs_key]
        assert refs > 0
        rows.append(
            [
                label,
                refs,
                stats["dcache.synonym_hazard"],
                stats["dcache.homonym_hazard"],
                stats["dcache.purge_lines"],
                f"{stats['dcache.miss'] / refs * 100:.1f}%",
            ]
        )
    benchout.record(
        "Section 2.2: Synonym/homonym hazards over a VIVT cache",
        format_table(
            ["system", "refs", "synonym hazards", "homonym hazards",
             "lines flushed", "miss rate"],
            rows,
            title="Hazard counts (paper: both are impossible in a SASOS; "
            "each multi-AS fix pays elsewhere)",
        ),
    )
    assert plain.synonym_hazards > 0
    assert plain.homonym_hazards > 0
    assert tagged.homonym_hazards == 0 and tagged.synonym_hazards > 0
    assert flushing.homonym_hazards == 0
    assert sasos.stats["dcache.synonym_hazard"] == 0
    assert sasos.stats["dcache.homonym_hazard"] == 0
    # Flushing pays in cache misses.
    assert flushing.stats["dcache.miss"] > plain.stats["dcache.miss"]
