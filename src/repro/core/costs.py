"""Bit-cost and cycle-cost models for the protection architectures.

This module turns the paper's quantitative hardware claims into
computations over :class:`~repro.core.params.MachineParams`:

* Figure 1's field widths — 52-bit VPN, 16-bit PD-ID, 3-bit rights for a
  fully associative PLB with 64-bit addresses and 4 Kbyte pages.
* Section 4's "PLB entries are about 25% smaller than page-group TLB
  entries" (they carry no virtual-to-physical translation).
* Section 3.2.1's "a virtually tagged cache would be about 10% larger"
  than a physically tagged one (64-bit VA, 36-bit PA, 32-byte lines).

It also provides the cycle-cost table used to convert event counts into
time.  Absolute cycle weights are configurable and illustrative; every
benchmark reports raw event counts alongside, which is where the paper's
qualitative claims are actually checked (see DESIGN.md §6).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.params import MachineParams, DEFAULT_PARAMS
from repro.sim.stats import Stats


def _index_bits(n_sets: int) -> int:
    """log2 of the number of sets (index bits removed from the tag)."""
    if n_sets <= 0 or n_sets & (n_sets - 1):
        raise ValueError("set count must be a positive power of two")
    return n_sets.bit_length() - 1


# --------------------------------------------------------------------- #
# Protection/translation structure entry sizes


def plb_entry_bits(params: MachineParams = DEFAULT_PARAMS, *, n_sets: int = 1) -> int:
    """Bits in one PLB entry: VPN tag + PD-ID + rights + valid.

    With the defaults and a fully associative organization this is
    52 + 16 + 3 (+1 valid) — the field widths of Figure 1.
    """
    vpn_tag = params.vpn_bits - _index_bits(n_sets)
    return vpn_tag + params.pd_id_bits + params.rights_bits + 1


def translation_tlb_entry_bits(params: MachineParams = DEFAULT_PARAMS, *, n_sets: int = 1) -> int:
    """Bits in one translation-only TLB entry (the PLB system's TLB)."""
    vpn_tag = params.vpn_bits - _index_bits(n_sets)
    return vpn_tag + params.pfn_bits + params.status_bits + 1


def pagegroup_tlb_entry_bits(params: MachineParams = DEFAULT_PARAMS, *, n_sets: int = 1) -> int:
    """Bits in one PA-RISC-style TLB entry: translation + rights + AID."""
    vpn_tag = params.vpn_bits - _index_bits(n_sets)
    return (
        vpn_tag
        + params.pfn_bits
        + params.rights_bits
        + params.aid_bits
        + params.status_bits
        + 1
    )


def conventional_tlb_entry_bits(params: MachineParams = DEFAULT_PARAMS, *, n_sets: int = 1) -> int:
    """Bits in one ASID-tagged combined TLB entry (the §3.1 baseline)."""
    vpn_tag = params.vpn_bits - _index_bits(n_sets)
    return (
        vpn_tag
        + params.pd_id_bits  # the ASID tag
        + params.pfn_bits
        + params.rights_bits
        + params.status_bits
        + 1
    )


def plb_size_advantage(params: MachineParams = DEFAULT_PARAMS) -> float:
    """Fraction by which a PLB entry is smaller than a page-group TLB entry.

    The paper states "about 25%" for 64-bit VAs and a 36-bit physical
    address (Section 4, fair-comparison setup).
    """
    plb = plb_entry_bits(params)
    pg = pagegroup_tlb_entry_bits(params)
    return 1.0 - plb / pg


# --------------------------------------------------------------------- #
# Data cache tag overhead (Section 3.2.1's ~10% claim)


def cache_line_bits(
    params: MachineParams = DEFAULT_PARAMS,
    *,
    virtually_tagged: bool,
    n_sets: int,
    asid_tagged: bool = False,
    state_bits: int = 2,
) -> int:
    """Total bits in one data-cache line including data, tag and state."""
    addr_bits = params.va_bits if virtually_tagged else params.pa_bits
    tag = addr_bits - params.line_offset_bits - _index_bits(n_sets)
    if asid_tagged:
        tag += params.pd_id_bits
    return params.cache_line_bytes * 8 + tag + state_bits


def vivt_overhead_ratio(
    params: MachineParams = DEFAULT_PARAMS,
    *,
    cache_bytes: int = 16 * 1024,
    ways: int = 1,
    asid_tagged: bool = False,
) -> float:
    """Size of a VIVT cache relative to a VIPT cache of equal capacity.

    Returns the ratio (e.g. 1.10 for "about 10% larger").  ASID tagging,
    the conventional homonym fix, widens virtual tags further — the extra
    cost the paper notes a single address space avoids.
    """
    n_lines = cache_bytes // params.cache_line_bytes
    n_sets = n_lines // ways
    vivt = cache_line_bits(params, virtually_tagged=True, n_sets=n_sets, asid_tagged=asid_tagged)
    vipt = cache_line_bits(params, virtually_tagged=False, n_sets=n_sets)
    return vivt / vipt


def structure_total_bits(entry_bits: int, entries: int) -> int:
    """Total storage of a lookup structure, ignoring decode logic."""
    return entry_bits * entries


def entries_for_budget(entry_bits: int, budget_bits: int) -> int:
    """How many entries fit in a fixed storage budget.

    Used for the equal-silicon comparison: the PLB's smaller entries buy
    more entries in the same area (Section 4's fair-comparison remark).
    """
    return budget_bits // entry_bits


# --------------------------------------------------------------------- #
# Section 4.2: implementation considerations on the reference path


@dataclass(frozen=True)
class CriticalPath:
    """The protection check's position on the memory reference path.

    Section 4.2: "Protection checking in the page-group implementation
    requires two steps performed in sequence ... These cannot be
    performed in parallel, since the second lookup is dependent on the
    result of the first.  The sequentiality may result in higher cycle
    times ... The PLB requires only a single cache lookup ... However,
    the tags being compared in the PLB are wider."
    """

    model: str
    #: Dependent lookup stages on the reference path (1 = fully
    #: parallel with the data-cache probe).
    sequential_stages: int
    #: Total tag-compare width across the stages.
    tag_compare_bits: int
    description: str


def critical_path(model: str, params: MachineParams = DEFAULT_PARAMS) -> CriticalPath:
    """The §4.2 reference-path summary for one protection model."""
    if model == "plb":
        return CriticalPath(
            model="plb",
            sequential_stages=1,
            tag_compare_bits=params.vpn_bits + params.pd_id_bits,
            description="PLB probed in parallel with the VIVT cache; "
            "one (wide) VPN+PD-ID compare",
        )
    if model == "pagegroup":
        return CriticalPath(
            model="pagegroup",
            sequential_stages=2,
            tag_compare_bits=params.vpn_bits + params.aid_bits,
            description="TLB lookup, THEN page-group cache check on the "
            "returned AID (dependent, serialized)",
        )
    if model == "conventional":
        return CriticalPath(
            model="conventional",
            sequential_stages=1,
            tag_compare_bits=params.vpn_bits + params.pd_id_bits,
            description="ASID-tagged TLB probed before/with the cache; "
            "one ASID+VPN compare",
        )
    raise ValueError(f"unknown model {model!r}")


# --------------------------------------------------------------------- #
# Cycle-cost model


@dataclass(frozen=True)
class CycleCosts:
    """Cycle weights for converting event counts into time.

    Defaults are era-plausible (early-1990s RISC, cf. Anderson et al.
    1991): a kernel trap costs a few hundred cycles, structure refills
    tens, register writes one.  Per-event weights map counter suffixes to
    cycles; :func:`cycles_for` applies them to a :class:`Stats` object.
    """

    cache_hit: int = 1
    cache_miss: int = 20
    writeback: int = 20
    tlb_refill: int = 30
    off_chip_tlb_access: int = 10
    plb_refill: int = 30
    group_reload_trap: int = 100
    kernel_trap: int = 300
    register_write: int = 1
    entry_inspect: int = 2
    entry_update: int = 4
    cache_line_flush: int = 5
    disk_io: int = 100_000
    page_copy: int = 2_000
    compress_page: int = 8_000
    #: One cluster interconnect message (send or reply); the wire and
    #: timeout time itself is on the interconnect's virtual clock, this
    #: prices the CPU-side marshalling/interrupt work per message.
    network_msg: int = 2_000
    #: One remote shootdown message (IPI + handler entry on the target
    #: CPU).  Per *message*, not per page — which is exactly what range
    #: shootdowns optimize: a batched K-page verb pays this once per
    #: CPU, the per-entry invalidation work is priced separately.
    shootdown_ipi: int = 500

    #: Counter-name suffix -> attribute name.  Any counter whose dotted
    #: name ends in a key is charged that weight.
    WEIGHTS = {
        "dcache.hit": "cache_hit",
        "dcache.miss": "cache_miss",
        "dcache.writeback": "writeback",
        "dcache.flush_lines": "cache_line_flush",
        "dcache.purge_lines": "cache_line_flush",
        "tlb.fill": "tlb_refill",
        "pgtlb.fill": "tlb_refill",
        "asidtlb.fill": "tlb_refill",
        "tlb.off_chip_access": "off_chip_tlb_access",
        "plb.fill": "plb_refill",
        "pgcache.fill": "group_reload_trap",
        "kernel.trap": "kernel_trap",
        "pdid.write": "register_write",
        "pid.write": "register_write",
        "plb.sweep_inspected": "entry_inspect",
        "plb.sweep_removed": "entry_update",
        "plb.sweep_updated": "entry_update",
        "plb.update": "entry_update",
        "pgtlb.update": "entry_update",
        "asidtlb.update": "entry_update",
        "asidtlb.sweep_inspected": "entry_inspect",
        "disk.read": "disk_io",
        "disk.write": "disk_io",
        "compress.page_out": "compress_page",
        "compress.page_in": "compress_page",
        "memory.page_write": "page_copy",
        "cluster.msg.sent": "network_msg",
        "smp.shootdown.msgs": "shootdown_ipi",
        "smp.tlb_shootdown.msgs": "shootdown_ipi",
        "smp.shootdown.entries": "entry_update",
        "smp.tlb_shootdown.entries": "entry_update",
    }

    def __post_init__(self) -> None:
        # Counter name -> weight, filled by weight_for.  Not a field, so
        # equality and hashing still see the weights alone.
        object.__setattr__(self, "_weight_cache", {})

    def weight_for(self, counter: str) -> int:
        """The cycle weight for one counter name (0 when unpriced).

        The suffix scan runs once per name; later calls are one dict
        probe.
        """
        weight = self._weight_cache.get(counter)
        if weight is None:
            weight = self._weight_cache[counter] = self.scan_weight(counter)
        return weight

    def scan_weight(self, counter: str) -> int:
        """:meth:`weight_for` without the cache: the suffix scan itself."""
        for suffix, attr in self.WEIGHTS.items():
            if counter == suffix or counter.endswith("." + suffix):
                return getattr(self, attr)
        return 0


#: Default cycle-cost table.
DEFAULT_COSTS = CycleCosts()


def cycles_for(stats: Stats, costs: CycleCosts = DEFAULT_COSTS) -> int:
    """Total weighted cycles for every priced event in ``stats``."""
    weight_for = costs.weight_for
    return sum(
        count * weight_for(name) for name, count in stats.counts_view().items()
    )


def cycles_breakdown(stats: Stats, costs: CycleCosts = DEFAULT_COSTS) -> dict[str, int]:
    """Per-counter cycle contributions (only non-zero entries)."""
    out: dict[str, int] = {}
    for name, count in stats.items():
        weight = costs.weight_for(name)
        if weight and count:
            out[name] = count * weight
    return out


def geometric_mean(values: list[float]) -> float:
    """Geometric mean, for summarizing speedup ratios across workloads."""
    if not values:
        raise ValueError("geometric mean of no values")
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))
