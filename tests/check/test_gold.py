"""The gold model: id/layout lockstep with the kernel, and the contract."""

from __future__ import annotations

import pytest

from repro.check.gold import Expectation, GoldModel
from repro.check.ops import (
    Attach,
    CreateDomain,
    CreateSegment,
    Detach,
    DestroySegment,
    PageIn,
    PageOut,
    SetPageRights,
    SetRightsAll,
    SetSegmentRights,
    Touch,
)
from repro.core.rights import AccessType, Rights
from repro.os.kernel import Kernel


def build(gold: GoldModel, *ops):
    last = None
    for op in ops:
        assert gold.validates(op), op
        last = gold.apply(op)
    return last


class TestKernelLockstep:
    """Ids and segment placement must mirror every kernel exactly."""

    @pytest.mark.parametrize("pages", [1, 3, 8, 16])
    def test_segment_placement_matches_kernel(self, any_model, pages):
        kernel = Kernel(any_model)
        gold = GoldModel()
        for index in range(3):
            segment = kernel.create_segment(f"s{index}", pages)
            mirror = gold.apply(CreateSegment(f"s{index}", pages, True))
            assert mirror.seg_id == segment.seg_id
            assert mirror.base_vpn == segment.base_vpn

    def test_domain_ids_match_kernel(self, any_model):
        kernel = Kernel(any_model)
        gold = GoldModel()
        for index in range(3):
            domain = kernel.create_domain(f"d{index}")
            assert gold.apply(CreateDomain(f"d{index}")) == domain.pd_id


class TestContract:
    def test_plb_checks_protection_before_translation(self):
        """Unattached reference: PLB faults protection, never pages."""
        gold = GoldModel()
        build(
            gold,
            CreateDomain("d"),
            CreateSegment("s", 4, False),  # not resident
        )
        assert gold.expect("plb", 1, 0x100, AccessType.READ) == Expectation(
            "prot", "unattached", page_fault=False
        )
        # The translating models page-fault first on the same reference.
        for model in ("conventional", "pagegroup"):
            assert gold.expect(model, 1, 0x100, AccessType.READ).page_fault

    def test_dead_segment_is_unattached_on_plb_fatal_elsewhere(self):
        gold = GoldModel()
        build(
            gold,
            CreateDomain("d"),
            CreateSegment("s", 4, True),
            CreateSegment("s2", 4, True),
            Attach(1, 1, Rights.RW),
            DestroySegment(1),
        )
        assert gold.expect("plb", 1, 0x100, AccessType.READ) == Expectation(
            "prot", "unattached"
        )
        assert gold.expect("conventional", 1, 0x100, AccessType.READ).kind == "fatal"
        assert gold.expect("pagegroup", 1, 0x100, AccessType.READ).kind == "fatal"

    def test_denied_write_read_only_attachment(self):
        gold = GoldModel()
        build(
            gold,
            CreateDomain("d"),
            CreateSegment("s", 4, True),
            Attach(1, 1, Rights.READ),
        )
        for model in ("plb", "conventional", "pagegroup"):
            expect = gold.expect(model, 1, 0x100, AccessType.WRITE)
            assert (expect.kind, expect.reason) == ("prot", "denied"), model
            assert gold.expect(model, 1, 0x100, AccessType.READ).kind == "allowed"

    def test_pagegroup_rights_are_global(self):
        """SetPageRights moves the page for *every* holder (§4.1.2)."""
        gold = GoldModel()
        build(
            gold,
            CreateDomain("a"),
            CreateDomain("b"),
            CreateSegment("s", 4, True),
            Attach(1, 1, Rights.RW),
            Attach(2, 1, Rights.RW),
            SetPageRights(1, 0x100, Rights.READ),
        )
        # Domain-page models: only domain 1's rights changed.
        assert gold.expect("plb", 2, 0x100, AccessType.WRITE).kind == "allowed"
        # Page-group model: the page now lives in domain 1's private
        # group, so domain 2 lost access entirely.
        expect = gold.expect("pagegroup", 2, 0x100, AccessType.WRITE)
        assert (expect.kind, expect.reason) == ("prot", "unattached")

    def test_pagegroup_detached_domain_keeps_private_pages(self):
        gold = GoldModel()
        build(
            gold,
            CreateDomain("a"),
            CreateSegment("s", 4, True),
            Attach(1, 1, Rights.RW),
            SetPageRights(1, 0x100, Rights.RW),
            Detach(1, 1),
        )
        # Domain-page models: detach revokes everything.
        assert gold.expect("plb", 1, 0x100, AccessType.READ).reason == "unattached"
        # Page-group: the private-group holding survives the detach.
        assert gold.expect("pagegroup", 1, 0x100, AccessType.READ).kind == "allowed"
        assert gold.expect("pagegroup", 1, 0x101, AccessType.READ).reason == "unattached"

    def test_read_only_attach_write_disables_the_group(self):
        gold = GoldModel()
        build(
            gold,
            CreateDomain("a"),
            CreateDomain("b"),
            CreateSegment("s", 4, True),
            Attach(1, 1, Rights.RW),
            Attach(2, 1, Rights.READ),
        )
        assert gold.expect("pagegroup", 1, 0x100, AccessType.WRITE).kind == "allowed"
        expect = gold.expect("pagegroup", 2, 0x100, AccessType.WRITE)
        assert (expect.kind, expect.reason) == ("prot", "denied")

    def test_set_segment_rights_clears_page_overrides(self):
        gold = GoldModel()
        build(
            gold,
            CreateDomain("d"),
            CreateSegment("s", 4, True),
            Attach(1, 1, Rights.RW),
            SetPageRights(1, 0x100, Rights.NONE),
            SetSegmentRights(1, 1, Rights.READ),
        )
        assert gold.expect("plb", 1, 0x100, AccessType.READ).kind == "allowed"
        assert gold.expect("plb", 1, 0x100, AccessType.WRITE).reason == "denied"

    def test_set_rights_all_reaches_every_attached_domain(self):
        gold = GoldModel()
        build(
            gold,
            CreateDomain("a"),
            CreateDomain("b"),
            CreateSegment("s", 4, True),
            Attach(1, 1, Rights.RW),
            Attach(2, 1, Rights.RW),
            SetRightsAll(0x100, Rights.READ),
        )
        for model in ("plb", "conventional", "pagegroup"):
            for pd in (1, 2):
                expect = gold.expect(model, pd, 0x100, AccessType.WRITE)
                assert (expect.kind, expect.reason) == ("prot", "denied"), (model, pd)

    def test_page_out_makes_translating_models_fault(self):
        gold = GoldModel()
        build(
            gold,
            CreateDomain("d"),
            CreateSegment("s", 4, True),
            Attach(1, 1, Rights.RW),
            PageOut(0x100),
        )
        assert gold.expect("plb", 1, 0x100, AccessType.READ) == Expectation(
            "allowed", page_fault=True
        )
        assert gold.expect("conventional", 1, 0x100, AccessType.READ).page_fault

    def test_plb_paged_out_page_faults_before_every_outcome(self):
        """The PLB pager revokes client rights at page-out, so every
        reference to a page it holds takes a protection fault the pager
        resolves by paging in — even a domain with no rights to it."""
        gold = GoldModel()
        build(
            gold,
            CreateDomain("rw"),
            CreateDomain("ro"),
            CreateDomain("none"),
            CreateSegment("s", 4, True),
            Attach(1, 1, Rights.RW),
            Attach(2, 1, Rights.READ),
            PageOut(0x100),
        )
        assert gold.paged_out == {0x100}
        write = AccessType.WRITE
        assert gold.expect("plb", 1, 0x100, write) == Expectation("allowed", page_fault=True)
        assert gold.expect("plb", 2, 0x100, write) == Expectation(
            "prot", "denied", page_fault=True
        )
        assert gold.expect("plb", 3, 0x100, write) == Expectation(
            "prot", "unattached", page_fault=True
        )
        # A page never populated is not the pager's: no fault first.
        build(gold, CreateSegment("t", 4, False), Attach(2, 2, Rights.READ))
        assert gold.expect("plb", 2, 0x104, write) == Expectation("prot", "denied")
        # The other models keep their translate-first contract.
        assert gold.expect("conventional", 3, 0x100, write) == Expectation(
            "prot", "unattached", page_fault=True
        )

    @pytest.mark.parametrize("release", ["page_in", "touch", "destroy"])
    def test_paged_out_rule_ends_when_the_pager_lets_go(self, release):
        gold = GoldModel()
        build(
            gold,
            CreateDomain("ro"),
            CreateDomain("rw"),
            CreateSegment("s", 4, True),
            CreateSegment("t", 4, True),
            Attach(1, 1, Rights.READ),
            PageOut(0x100),
        )
        {
            "page_in": lambda: build(gold, PageIn(0x100)),
            "touch": lambda: build(gold, Touch(2, gold.params.vaddr(0x100), AccessType.READ)),
            "destroy": lambda: build(gold, DestroySegment(1)),
        }[release]()
        assert gold.paged_out == set()
        expect = gold.expect("plb", 1, 0x100, AccessType.WRITE)
        assert not expect.page_fault
        assert expect.kind == "prot"

    def test_touch_populates_live_page(self):
        gold = GoldModel()
        build(
            gold,
            CreateDomain("d"),
            CreateSegment("s", 4, False),
            Attach(1, 1, Rights.RW),
        )
        assert 0x100 not in gold.resident
        gold.apply(Touch(1, gold.params.vaddr(0x100), AccessType.READ))
        assert 0x100 in gold.resident


class TestValidity:
    def test_double_attach_invalid(self):
        gold = GoldModel()
        build(
            gold,
            CreateDomain("d"),
            CreateSegment("s", 4, True),
            Attach(1, 1, Rights.RW),
        )
        assert not gold.validates(Attach(1, 1, Rights.READ))

    def test_verbs_on_dead_segment_invalid(self):
        gold = GoldModel()
        build(
            gold,
            CreateDomain("d"),
            CreateSegment("s", 4, True),
            Attach(1, 1, Rights.RW),
            DestroySegment(1),
        )
        for op in (
            Attach(1, 1, Rights.RW),
            Detach(1, 1),
            SetSegmentRights(1, 1, Rights.READ),
            SetPageRights(1, 0x100, Rights.READ),
            SetRightsAll(0x100, Rights.READ),
            PageOut(0x100),
            DestroySegment(1),
        ):
            assert not gold.validates(op), op
        # A touch into the dead range stays valid: it's a reference, and
        # the fault classification is exactly what the oracle compares.
        assert gold.validates(Touch(1, gold.params.vaddr(0x100), AccessType.READ))
