"""The kernel oracle's operation vocabulary and scenario generator.

Every operation is a frozen dataclass naming a kernel verb (or a memory
reference) in model-agnostic terms: domains and segments are identified
by the deterministic kernel-assigned ids, pages by VPN.  The same op list
replays identically through any subset of the three memory systems, and
serializes to/from plain dicts so a minimized divergence can be dumped
and replayed (:mod:`repro.check.harness`).

The generator only emits operations that are valid against the gold
model's state (the validity rules are model-independent kernel
preconditions), so a generated stream never trips ``KernelError`` — but
deliberately *does* include references that fault: touches by unattached
domains, touches of ``Rights.NONE`` pages, and touches into destroyed
segments, because the fault classification is exactly what the oracle
compares across models.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from typing import Iterable

from repro.core.params import DEFAULT_PARAMS, MachineParams
from repro.core.rights import AccessType, Rights
from repro.os.segment import VirtualSegment
from repro.workloads.tracegen import RefPattern, TraceGenerator


@dataclass(frozen=True)
class Op:
    """Base class: serialization shared by every operation."""

    def to_dict(self) -> dict:
        payload: dict = {"op": type(self).__name__}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if isinstance(value, Rights):
                value = int(value)
            elif isinstance(value, AccessType):
                value = value.value
            payload[spec.name] = value
        return payload


@dataclass(frozen=True)
class CreateDomain(Op):
    name: str


@dataclass(frozen=True)
class CreateSegment(Op):
    name: str
    n_pages: int
    populate: bool


@dataclass(frozen=True)
class Attach(Op):
    pd: int
    seg: int
    rights: Rights


@dataclass(frozen=True)
class Detach(Op):
    pd: int
    seg: int


@dataclass(frozen=True)
class SetPageRights(Op):
    pd: int
    vpn: int
    rights: Rights


@dataclass(frozen=True)
class SetSegmentRights(Op):
    pd: int
    seg: int
    rights: Rights


@dataclass(frozen=True)
class SetRightsAll(Op):
    """Table 1's "Invalidate" generalized: set all domains' page rights."""

    vpn: int
    rights: Rights


@dataclass(frozen=True)
class PageOut(Op):
    vpn: int


@dataclass(frozen=True)
class PageIn(Op):
    vpn: int


@dataclass(frozen=True)
class Switch(Op):
    pd: int


@dataclass(frozen=True)
class DestroySegment(Op):
    seg: int


@dataclass(frozen=True)
class Touch(Op):
    pd: int
    vaddr: int
    access: AccessType


_OP_TYPES = {
    cls.__name__: cls
    for cls in (
        CreateDomain, CreateSegment, Attach, Detach, SetPageRights,
        SetSegmentRights, SetRightsAll, PageOut, PageIn, Switch,
        DestroySegment, Touch,
    )
}


#: The plain field types an op's JSON form must carry as-is.
_PLAIN_TYPES = {"int": int, "str": str, "bool": bool}


def op_from_dict(payload: dict) -> Op:
    """Rebuild one operation from its :meth:`Op.to_dict` form."""
    kind = payload.get("op")
    cls = _OP_TYPES.get(kind)
    if cls is None:
        raise ValueError(f"unknown op kind {kind!r}")
    kwargs = {}
    for spec in fields(cls):
        value = payload[spec.name]
        if spec.type == "Rights":
            value = Rights(value)
        elif spec.type == "AccessType":
            value = AccessType(value)
        elif not isinstance(value, _PLAIN_TYPES[spec.type]):
            raise ValueError(f"{kind}.{spec.name} is not {spec.type}: {value!r}")
        kwargs[spec.name] = value
    return cls(**kwargs)


def ops_from_dicts(payloads: Iterable[dict]) -> list[Op]:
    return [op_from_dict(payload) for payload in payloads]


# --------------------------------------------------------------------- #
# Scenarios


@dataclass(frozen=True)
class ScenarioSpec:
    """A named fuzzing scenario: op mix plus hardware configuration.

    The hardware structures are deliberately small so replacement,
    refault and group-reload paths all churn within a few hundred ops.
    """

    name: str
    description: str
    weights: dict
    n_domains: int = 3
    n_segments: int = 4
    seg_pages: int = 8
    plb_levels: tuple = (0,)
    l2: bool = False

    def system_options(self, model: str) -> dict:
        if model == "plb":
            options = {
                "plb_entries": 16,
                "tlb_entries": 32,
                "cache_bytes": 2048,
                "cache_ways": 2,
                "plb_levels": self.plb_levels,
            }
            if self.l2:
                options["l2_cache_bytes"] = 8192
                options["l2_cache_ways"] = 2
            return options
        if model == "pagegroup":
            return {
                "tlb_entries": 32,
                "group_capacity": 4,
                "cache_bytes": 2048,
                "cache_ways": 2,
            }
        return {"tlb_entries": 32, "cache_bytes": 2048, "cache_ways": 2}


SCENARIOS: dict[str, ScenarioSpec] = {
    "fuzz": ScenarioSpec(
        name="fuzz",
        description="everything mixed; multi-level PLB (superpage units)",
        weights={
            "touch": 0.48, "attach": 0.06, "detach": 0.04,
            "set_page": 0.08, "set_segment": 0.05, "set_all": 0.05,
            "page_out": 0.06, "page_in": 0.03, "switch": 0.09,
            "destroy": 0.01, "create_segment": 0.03, "revoke_cycle": 0.02,
        },
        plb_levels=(2, 0),
    ),
    "attach": ScenarioSpec(
        name="attach",
        description="attach/detach churn (the Table 1 attach column)",
        weights={
            "touch": 0.45, "attach": 0.20, "detach": 0.15,
            "set_segment": 0.05, "switch": 0.15,
        },
    ),
    "rights": ScenarioSpec(
        name="rights",
        description="permission-change heavy (set_page/set_segment/set_all)",
        weights={
            "touch": 0.38, "set_page": 0.20, "set_segment": 0.12,
            "set_all": 0.14, "attach": 0.04, "switch": 0.06,
            "revoke_cycle": 0.06,
        },
        plb_levels=(2, 0),
    ),
    "paging": ScenarioSpec(
        name="paging",
        description="page-out/page-in churn behind a PIPT L2",
        weights={
            "touch": 0.50, "page_out": 0.18, "page_in": 0.12,
            "set_all": 0.05, "switch": 0.12, "destroy": 0.01,
            "create_segment": 0.02,
        },
        l2=True,
    ),
    "switch": ScenarioSpec(
        name="switch",
        description="domain-switch heavy (holder purge/reload paths)",
        weights={
            "touch": 0.55, "switch": 0.30, "attach": 0.06,
            "detach": 0.04, "set_page": 0.05,
        },
    ),
}


# --------------------------------------------------------------------- #
# Generation


def _align_up_unit(vpn: int, unit: int) -> int:
    return (vpn + unit - 1) & ~(unit - 1)


def generate_ops(
    spec: ScenarioSpec,
    seed: int,
    n_ops: int = 250,
    params: MachineParams = DEFAULT_PARAMS,
) -> list[Op]:
    """Produce a deterministic, gold-valid op stream for one scenario."""
    from repro.check.gold import GoldModel

    rng = random.Random(seed)
    gold = GoldModel(params=params)
    tracegen = TraceGenerator(seed=seed + 7919, params=params)
    ops: list[Op] = []

    def emit(op: Op) -> None:
        assert gold.validates(op), f"generator produced invalid op {op}"
        gold.apply(op)
        ops.append(op)

    for index in range(spec.n_domains):
        emit(CreateDomain(f"d{index}"))
    pds = sorted(gold.domains)
    for index in range(spec.n_segments):
        emit(CreateSegment(f"s{index}", spec.seg_pages, rng.random() < 0.6))
    for seg_id in sorted(gold.segments):
        for pd in pds:
            if rng.random() < 0.75:
                emit(Attach(pd, seg_id, rng.choice((Rights.READ, Rights.RW))))

    def live_segments():
        return [seg for seg in gold.segments.values() if seg.live]

    def attached_pairs():
        return [
            (pd, seg_id)
            for (pd, seg_id) in sorted(gold.attachments)
            if gold.segments[seg_id].live
        ]

    def emit_touch_burst() -> None:
        segments = list(gold.segments.values())
        if not segments:
            return
        live = live_segments()
        dead = [seg for seg in segments if not seg.live]
        # Mostly live targets; occasionally chase a dangling pointer
        # into a destroyed segment (the models classify that fault very
        # differently — exactly what the contract pins down).
        if dead and (not live or rng.random() < 0.10):
            seg = rng.choice(dead)
        else:
            seg = rng.choice(live)
        holders = [pd for (pd, seg_id) in gold.attachments if seg_id == seg.seg_id]
        if holders and rng.random() < 0.8:
            pd = rng.choice(holders)
        else:
            pd = rng.choice(pds)
        vseg = VirtualSegment(
            seg_id=seg.seg_id, name="burst", base_vpn=seg.base_vpn,
            n_pages=seg.n_pages, aid=0,
        )
        count = rng.randint(3, 10)
        for ref in tracegen.refs(pd, vseg, count, RefPattern(write_fraction=0.4)):
            emit(Touch(pd, ref.vaddr, ref.access))

    builders = {
        "touch": emit_touch_burst,
    }

    def build_attach():
        candidates = [
            (pd, seg.seg_id)
            for seg in live_segments()
            for pd in pds
            if (pd, seg.seg_id) not in gold.attachments
        ]
        if candidates:
            pd, seg_id = rng.choice(candidates)
            emit(Attach(pd, seg_id, rng.choice((Rights.READ, Rights.RW))))

    def build_detach():
        candidates = attached_pairs()
        if candidates:
            pd, seg_id = rng.choice(candidates)
            emit(Detach(pd, seg_id))

    def build_set_page():
        candidates = attached_pairs()
        if candidates:
            pd, seg_id = rng.choice(candidates)
            seg = gold.segments[seg_id]
            vpn = rng.randrange(seg.base_vpn, seg.end_vpn)
            emit(SetPageRights(pd, vpn, rng.choice(
                (Rights.NONE, Rights.READ, Rights.RW))))

    def build_set_segment():
        candidates = attached_pairs()
        if candidates:
            pd, seg_id = rng.choice(candidates)
            emit(SetSegmentRights(pd, seg_id, rng.choice(
                (Rights.NONE, Rights.READ, Rights.RW))))

    def build_set_all():
        live = live_segments()
        if live:
            seg = rng.choice(live)
            vpn = rng.randrange(seg.base_vpn, seg.end_vpn)
            emit(SetRightsAll(vpn, rng.choice(
                (Rights.NONE, Rights.READ, Rights.RW))))

    def build_page_out():
        candidates = sorted(
            vpn for vpn in gold.resident
            if gold.live_segment_at(vpn) is not None
        )
        if candidates:
            emit(PageOut(rng.choice(candidates)))

    def build_page_in():
        candidates = [
            vpn
            for seg in live_segments()
            for vpn in range(seg.base_vpn, seg.end_vpn)
            if vpn not in gold.resident
        ]
        if candidates:
            emit(PageIn(rng.choice(candidates)))

    def build_switch():
        emit(Switch(rng.choice(pds)))

    def build_destroy():
        live = live_segments()
        if len(live) > 1:
            emit(DestroySegment(rng.choice(live).seg_id))

    def build_revoke_cycle():
        """Grant, widen, then revoke rights on one superpage unit.

        This compound chain is the shortest path to a domain holding
        page-level and superpage-level protection entries for the same
        address — the state where a revocation that fails to sweep every
        level leaves a stale grant.  Random independent ops reach it too
        rarely to be a useful fuzzing probe, so it gets its own builder.
        """
        unit = 4  # pages in a level-2 protection unit
        candidates = [
            (pd, seg_id)
            for (pd, seg_id) in attached_pairs()
            if gold.segments[seg_id].n_pages >= unit
        ]
        if not candidates:
            return
        pd, seg_id = rng.choice(candidates)
        seg = gold.segments[seg_id]
        lo = _align_up_unit(seg.base_vpn, unit)
        if lo + unit > seg.end_vpn:
            return
        lo += unit * rng.randrange((seg.end_vpn - lo) // unit)
        target = rng.randrange(lo, lo + unit)
        sibling = rng.choice([vpn for vpn in range(lo, lo + unit) if vpn != target])
        emit(SetPageRights(pd, target, rng.choice((Rights.READ, Rights.RW))))
        emit(Touch(pd, params.vaddr(target), AccessType.READ))   # page-level fill
        emit(SetSegmentRights(pd, seg_id, Rights.RW))            # clear override
        emit(Touch(pd, params.vaddr(sibling), AccessType.READ))  # superpage fill
        emit(SetPageRights(pd, target, rng.choice((Rights.NONE, Rights.READ))))
        emit(Touch(pd, params.vaddr(target), AccessType.WRITE))  # must deny

    def build_create_segment():
        live_pages = sum(seg.n_pages for seg in live_segments())
        if live_pages + spec.seg_pages <= 96:
            emit(CreateSegment(
                f"s{len(gold.segments)}", spec.seg_pages, rng.random() < 0.6
            ))

    builders.update({
        "revoke_cycle": build_revoke_cycle,
        "attach": build_attach,
        "detach": build_detach,
        "set_page": build_set_page,
        "set_segment": build_set_segment,
        "set_all": build_set_all,
        "page_out": build_page_out,
        "page_in": build_page_in,
        "switch": build_switch,
        "destroy": build_destroy,
        "create_segment": build_create_segment,
    })

    kinds = list(spec.weights)
    weights = [spec.weights[kind] for kind in kinds]
    while len(ops) < n_ops:
        builders[rng.choices(kinds, weights)[0]]()
    return ops
