"""The gold protection model: flat dictionaries, no caches, no cleverness.

The hardware systems under test answer "may domain *d* access page *p*?"
through layered caches (PLB, AID-TLB + group holder, ASID-TLB) that must
be kept coherent by the kernel's Table 1 verbs.  The gold model answers
the same question by direct interpretation of the protection state:

* domain-page rights are ``override[(pd, vpn)]`` falling back to
  ``attachment[(pd, seg)]`` — a two-entry dict chain;
* page-group rights are ``group_rights[vpn]`` masked by the holding's
  write-disable bit, with membership via ``group_of[vpn]``;
* residency is a set of VPNs; no replacement, no staleness possible.

The models are *designed* to disagree on some outcomes — the paper's
whole point is that they implement different protection semantics — so
equivalence is checked per model through :meth:`GoldModel.expect`, which
encodes the contract (see ARCHITECTURE.md §7):

* the **plb** system checks protection before translation: a reference a
  domain may not make raises ``ProtectionFault`` even when the page is
  not resident, and a dangling reference into a destroyed segment is
  ``UNATTACHED``, never a page fault;
* **pagegroup** and **conventional** translate first: a non-resident
  page raises ``PageFault`` before any protection answer, and a dead
  segment's pages fault unserviceably ("fatal");
* **conventional** distinguishes resident-but-unattached
  (``UNATTACHED`` immediately) from non-resident (page fault first);
* **pagegroup** rights are *global per page*: ``SetPageRights`` moves
  the page into a domain-private group, changing every other domain's
  access to it (§4.1.2), and a detached domain retains access to pages
  previously moved into its private group;
* a page the **pager holds** (paged out, not yet paged in or touched)
  takes a page fault before every **plb** outcome: the page-out revoked
  the clients' rights (Table 1's compression-paging row), so any
  reference — even one by a domain without rights to the page — takes a
  protection fault that the pager resolves by paging the page in.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.params import DEFAULT_PARAMS, MachineParams
from repro.core.rights import AccessType, Rights
from repro.check import ops as opmod


@dataclass(frozen=True)
class Expectation:
    """Predicted outcome class for one (model, reference) pair.

    Attributes:
        kind: ``"allowed"``, ``"prot"`` (protection fault) or ``"fatal"``
            (an unserviceable page fault: no live segment backs the page).
        reason: fault reason for ``"prot"`` (``"unattached"``/``"denied"``).
        page_fault: a fault the kernel resolves precedes the final
            outcome: a serviceable page fault, or a protection fault the
            pager resolves by paging the page in.
    """

    kind: str
    reason: str | None = None
    page_fault: bool = False

    def describe(self) -> str:
        tail = f"/{self.reason}" if self.reason else ""
        pf = "+pagefault" if self.page_fault else ""
        return f"{self.kind}{tail}{pf}"


@dataclass
class GoldSegment:
    seg_id: int
    base_vpn: int
    n_pages: int
    aid: int
    live: bool = True

    @property
    def end_vpn(self) -> int:
        return self.base_vpn + self.n_pages

    def contains(self, vpn: int) -> bool:
        return self.base_vpn <= vpn < self.end_vpn


def _align_up(value: int, align: int) -> int:
    return (value + align - 1) & ~(align - 1)


@dataclass
class GoldModel:
    """Flat reference interpretation of the kernel's protection state."""

    params: MachineParams = DEFAULT_PARAMS
    first_vpn: int = 0x100

    domains: set = field(default_factory=set)
    segments: dict = field(default_factory=dict)       # seg_id -> GoldSegment
    attachments: dict = field(default_factory=dict)    # (pd, seg_id) -> Rights
    overrides: dict = field(default_factory=dict)      # (pd, vpn) -> Rights
    group_of: dict = field(default_factory=dict)       # vpn -> aid
    group_rights: dict = field(default_factory=dict)   # vpn -> Rights
    holdings: dict = field(default_factory=dict)       # (pd, aid) -> write_disable
    private_aid: dict = field(default_factory=dict)    # pd -> aid
    resident: set = field(default_factory=set)         # vpns with a frame
    paged_out: set = field(default_factory=set)        # vpns the pager holds

    _next_pd: int = 1
    _next_seg: int = 1
    _next_aid: int = 1
    _next_vpn: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        self._next_vpn = self.first_vpn

    # ------------------------------------------------------------------ #
    # Queries

    def segment_at(self, vpn: int) -> GoldSegment | None:
        for seg in self.segments.values():
            if seg.contains(vpn):
                return seg
        return None

    def live_segment_at(self, vpn: int) -> GoldSegment | None:
        seg = self.segment_at(vpn)
        return seg if seg is not None and seg.live else None

    def domain_page_rights(self, pd: int, vpn: int) -> Rights | None:
        """The domain-page models' effective rights (None = unattached)."""
        seg = self.live_segment_at(vpn)
        if seg is None or (pd, seg.seg_id) not in self.attachments:
            return None
        override = self.overrides.get((pd, vpn))
        if override is not None:
            return override
        return self.attachments[(pd, seg.seg_id)]

    # ------------------------------------------------------------------ #
    # The per-model equivalence contract

    def expect(self, model: str, pd: int, vpn: int, access: AccessType) -> Expectation:
        if model == "plb":
            return self._expect_plb(pd, vpn, access)
        if model == "pagegroup":
            return self._expect_pagegroup(pd, vpn, access)
        if model == "conventional":
            return self._expect_conventional(pd, vpn, access)
        raise ValueError(f"unknown model {model!r}")

    def _expect_plb(self, pd: int, vpn: int, access: AccessType) -> Expectation:
        paged_out = vpn in self.paged_out
        rights = self.domain_page_rights(pd, vpn)
        if rights is None:
            return Expectation("prot", "unattached", page_fault=paged_out)
        if not rights.allows(access):
            return Expectation("prot", "denied", page_fault=paged_out)
        return Expectation("allowed", page_fault=vpn not in self.resident)

    def _expect_conventional(self, pd: int, vpn: int, access: AccessType) -> Expectation:
        if self.live_segment_at(vpn) is None:
            return Expectation("fatal", page_fault=True)
        rights = self.domain_page_rights(pd, vpn)
        page_fault = vpn not in self.resident
        if rights is None:
            return Expectation("prot", "unattached", page_fault=page_fault)
        if not rights.allows(access):
            return Expectation("prot", "denied", page_fault=page_fault)
        return Expectation("allowed", page_fault=page_fault)

    def _expect_pagegroup(self, pd: int, vpn: int, access: AccessType) -> Expectation:
        if self.live_segment_at(vpn) is None:
            return Expectation("fatal", page_fault=True)
        page_fault = vpn not in self.resident
        aid = self.group_of[vpn]
        write_disable = self.holdings.get((pd, aid))
        if write_disable is None:
            return Expectation("prot", "unattached", page_fault=page_fault)
        effective = self.group_rights[vpn]
        if write_disable:
            effective = effective.without_write()
        if not effective.allows(access):
            return Expectation("prot", "denied", page_fault=page_fault)
        return Expectation("allowed", page_fault=page_fault)

    # ------------------------------------------------------------------ #
    # Validity (kernel preconditions, model-independent)

    def validates(self, op: opmod.Op) -> bool:
        if isinstance(op, (opmod.CreateDomain, opmod.CreateSegment)):
            return True
        if isinstance(op, opmod.Attach):
            seg = self.segments.get(op.seg)
            return (
                op.pd in self.domains
                and seg is not None and seg.live
                and (op.pd, op.seg) not in self.attachments
            )
        if isinstance(op, opmod.Detach):
            seg = self.segments.get(op.seg)
            return seg is not None and seg.live and (op.pd, op.seg) in self.attachments
        if isinstance(op, opmod.SetPageRights):
            seg = self.live_segment_at(op.vpn)
            return seg is not None and (op.pd, seg.seg_id) in self.attachments
        if isinstance(op, opmod.SetSegmentRights):
            seg = self.segments.get(op.seg)
            return seg is not None and seg.live and (op.pd, op.seg) in self.attachments
        if isinstance(op, opmod.SetRightsAll):
            return self.live_segment_at(op.vpn) is not None
        if isinstance(op, opmod.PageOut):
            return op.vpn in self.resident and self.live_segment_at(op.vpn) is not None
        if isinstance(op, opmod.PageIn):
            return op.vpn not in self.resident and self.live_segment_at(op.vpn) is not None
        if isinstance(op, opmod.Switch):
            return op.pd in self.domains
        if isinstance(op, opmod.DestroySegment):
            seg = self.segments.get(op.seg)
            return seg is not None and seg.live
        if isinstance(op, opmod.Touch):
            return op.pd in self.domains
        raise ValueError(f"unknown op {op!r}")

    # ------------------------------------------------------------------ #
    # State transitions (mirrors the kernel verbs' shared semantics)

    def apply(self, op: opmod.Op):
        """Advance gold state; returns the created id for Create* ops."""
        if isinstance(op, opmod.CreateDomain):
            pd = self._next_pd
            self._next_pd += 1
            self.domains.add(pd)
            return pd
        if isinstance(op, opmod.CreateSegment):
            return self._create_segment(op)
        if isinstance(op, opmod.Attach):
            self.attachments[(op.pd, op.seg)] = op.rights
            if op.rights != Rights.NONE:
                aid = self.segments[op.seg].aid
                self.holdings[(op.pd, aid)] = not (op.rights & Rights.WRITE)
            return None
        if isinstance(op, opmod.Detach):
            self._detach(op.pd, self.segments[op.seg])
            return None
        if isinstance(op, opmod.SetPageRights):
            self.overrides[(op.pd, op.vpn)] = op.rights
            # Page-group semantics: the page moves to the domain's
            # private group; every other domain's access changes with it
            # (§4.1.2 — the global nature of page-group protection).
            private = self.private_aid.get(op.pd)
            if private is None:
                private = self._next_aid
                self._next_aid += 1
                self.private_aid[op.pd] = private
            self.holdings[(op.pd, private)] = False
            self.group_of[op.vpn] = private
            self.group_rights[op.vpn] = op.rights
            return None
        if isinstance(op, opmod.SetSegmentRights):
            seg = self.segments[op.seg]
            self.attachments[(op.pd, op.seg)] = op.rights
            self._clear_overrides(op.pd, seg)
            if op.rights == Rights.NONE:
                self.holdings.pop((op.pd, seg.aid), None)
            else:
                self.holdings[(op.pd, seg.aid)] = not (op.rights & Rights.WRITE)
            return None
        if isinstance(op, opmod.SetRightsAll):
            seg = self.live_segment_at(op.vpn)
            if seg is not None:
                for (pd, seg_id) in list(self.attachments):
                    if seg_id == seg.seg_id:
                        self.overrides[(pd, op.vpn)] = op.rights
            self.group_rights[op.vpn] = op.rights
            return None
        if isinstance(op, opmod.PageOut):
            self.resident.discard(op.vpn)
            self.paged_out.add(op.vpn)
            return None
        if isinstance(op, opmod.PageIn):
            self.resident.add(op.vpn)
            self.paged_out.discard(op.vpn)
            return None
        if isinstance(op, opmod.Switch):
            return None  # the kernels track each CPU's current domain
        if isinstance(op, opmod.DestroySegment):
            seg = self.segments[op.seg]
            for (pd, seg_id) in list(self.attachments):
                if seg_id == seg.seg_id:
                    self._detach(pd, seg)
            for vpn in range(seg.base_vpn, seg.end_vpn):
                self.resident.discard(vpn)
                self.paged_out.discard(vpn)
                self.group_of.pop(vpn, None)
                self.group_rights.pop(vpn, None)
            seg.live = False
            return None
        if isinstance(op, opmod.Touch):
            # Canonical residency: a touch of a live, non-resident page
            # leaves it resident (the translating models demand-populate
            # it, the pager pages it in; the harness syncs any model
            # that did not fault).
            vpn = self.params.vpn(op.vaddr)
            if self.live_segment_at(vpn) is not None:
                self.resident.add(vpn)
                self.paged_out.discard(vpn)
            return None
        raise ValueError(f"unknown op {op!r}")

    def _create_segment(self, op: opmod.CreateSegment) -> GoldSegment:
        align = 1 << (op.n_pages - 1).bit_length()
        base = _align_up(self._next_vpn, align)
        self._next_vpn = base + op.n_pages
        seg = GoldSegment(
            seg_id=self._next_seg, base_vpn=base, n_pages=op.n_pages,
            aid=self._next_aid,
        )
        self._next_seg += 1
        self._next_aid += 1
        self.segments[seg.seg_id] = seg
        for vpn in range(seg.base_vpn, seg.end_vpn):
            self.group_of[vpn] = seg.aid
            self.group_rights[vpn] = Rights.RW
            if op.populate:
                self.resident.add(vpn)
        return seg

    def _detach(self, pd: int, seg: GoldSegment) -> None:
        self.attachments.pop((pd, seg.seg_id), None)
        self._clear_overrides(pd, seg)
        # Only the segment's own group holding goes; pages this domain
        # moved into its *private* group stay reachable (§4.1.2).
        self.holdings.pop((pd, seg.aid), None)

    def _clear_overrides(self, pd: int, seg: GoldSegment) -> None:
        for (owner, vpn) in list(self.overrides):
            if owner == pd and seg.contains(vpn):
                del self.overrides[(owner, vpn)]
