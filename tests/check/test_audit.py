"""What the audit finds in each cached protection entry, and what it repairs.

One rule per model says what a PLB, translation-TLB, AID-TLB, group
holder or ASID-TLB entry may say.  :func:`check_invariants` reports
what breaks the rule and :meth:`Scrubber.scrub` repairs it.  Each case
below corrupts one entry of a warm kernel and pins both halves, as two
tests: ``report`` pins the exact message list; ``repair`` pins the
scrub's return value, the ``scrub.checked`` and ``scrub.repairs``
deltas, the re-check after the repair and the repaired entry.  Every
case runs on one CPU and on CPU 1 of two, where each message carries a
``cpu1:`` prefix.

Two silent repairs are pinned on purpose.  A PLB or ASID-TLB entry
granting less than its domain's tables allow is rewritten without a
message: it can only cost a refault, never leak a right.  An AID-TLB
entry whose page the group table does not back is dropped without one:
there is no table value to name.
"""

from __future__ import annotations

import pytest

from repro.check.invariants import check_invariants
from repro.core.rights import AccessType, Rights
from repro.faults.scrub import Scrubber
from repro.hardware.registers import PIDEntry
from repro.os.kernel import Kernel
from repro.sim.machine import SMPMachine

CPUS = pytest.mark.parametrize("n_cpus", [1, 2], ids=["1cpu", "cpu1of2"])
HALVES = pytest.mark.parametrize("half", ["report", "repair"])


class Warm:
    """A kernel whose last CPU has written every page of a 4-page segment.

    ``owner`` attaches the segment RW and ``reader`` READ; ``owner``
    wrote each page on CPU ``n_cpus - 1``, so that CPU's protection,
    translation and data caches hold one warm entry per page.
    """

    def __init__(self, model: str, n_cpus: int, **options) -> None:
        kernel = Kernel(model, n_frames=64, n_cpus=n_cpus, system_options=options)
        self.kernel = kernel
        self.owner = kernel.create_domain("owner")
        self.reader = kernel.create_domain("reader")
        self.seg = kernel.create_segment("seg", 4, populate=True)
        kernel.attach(self.owner, self.seg, Rights.RW)
        kernel.attach(self.reader, self.seg, Rights.READ)
        self.vpns = list(self.seg.vpns())
        cpu = n_cpus - 1
        machine = SMPMachine(kernel)
        for vpn in self.vpns:
            machine.touch_on(cpu, self.owner, kernel.params.vaddr(vpn), AccessType.WRITE)
        self.system = kernel.cpus[cpu].system
        self.prefix = f"cpu{cpu}: " if n_cpus > 1 else ""

    def pfn(self, vpn: int) -> int:
        return self.kernel.translations.pfn_for(vpn)

    def pin(self, half, messages, *, repairs, checked, recheck=()) -> bool:
        """Assert one half of the audit; True when the scrub ran.

        ``report``: :func:`check_invariants` says exactly ``messages``.
        ``repair``: one scrub returns ``repairs`` and moves
        ``scrub.checked`` by ``checked`` and ``scrub.repairs`` by
        ``repairs``; the re-check then says exactly ``recheck``.
        """
        if half == "report":
            assert check_invariants(self.kernel) == [self.prefix + m for m in messages]
            return False
        stats = self.kernel.stats
        before = (stats.get("scrub.checked", 0), stats.get("scrub.repairs", 0))
        returned = Scrubber(self.kernel).scrub()
        after = (stats.get("scrub.checked", 0), stats.get("scrub.repairs", 0))
        assert (returned, after[0] - before[0], after[1] - before[1]) == (
            repairs, checked, repairs,
        )
        assert check_invariants(self.kernel) == [self.prefix + m for m in recheck]
        return True


def plb_entry(env: Warm, vpn: int):
    return dict(env.system.plb.items())[(env.owner.pd_id, vpn, 0)]


# --------------------------------------------------------------------- #
# PLB system: the PLB and the translation TLB


@CPUS
@HALVES
class TestPLB:
    def test_clean_kernel(self, n_cpus, half):
        Warm("plb", n_cpus).pin(half, [], repairs=0, checked=8)

    def test_excess_is_reported_and_rewritten(self, n_cpus, half):
        env = Warm("plb", n_cpus)
        vpn = env.vpns[1]
        plb_entry(env, vpn).rights = Rights.RWX
        if env.pin(
            half,
            [
                f"plb: entry (pd={env.owner.pd_id}, unit={vpn:#x}, level=0) "
                f"grants rwx on vpn {vpn:#x} but tables allow rw- (excess --x)"
            ],
            repairs=1, checked=8,
        ):
            assert plb_entry(env, vpn).rights == Rights.RW

    def test_under_grant_is_rewritten_silently(self, n_cpus, half):
        env = Warm("plb", n_cpus)
        vpn = env.vpns[2]
        plb_entry(env, vpn).rights = Rights.READ
        if env.pin(half, [], repairs=1, checked=8):
            assert plb_entry(env, vpn).rights == Rights.RW

    @pytest.mark.parametrize("rights", [Rights.NONE, Rights.READ], ids=["none", "read"])
    def test_entry_without_authority_is_dropped(self, n_cpus, half, rights):
        env = Warm("plb", n_cpus)
        stranger = env.kernel.create_domain("stranger")
        vpn = env.vpns[0]
        env.system.plb.fill(stranger.pd_id, env.kernel.params.vaddr(vpn), rights)
        messages = []
        if rights:
            messages = [
                f"plb: entry (pd={stranger.pd_id}, unit={vpn:#x}, level=0) "
                f"grants r-- on vpn {vpn:#x} but tables allow --- (excess r--)"
            ]
        if env.pin(half, messages, repairs=1, checked=9):
            assert (stranger.pd_id, vpn, 0) not in dict(env.system.plb.items())

    def test_superpage_over_an_overridden_page_is_dropped(self, n_cpus, half):
        env = Warm("plb", n_cpus, plb_levels=(2, 0))
        base = env.vpns[0]
        assert base % 4 == 0
        assert [key.level for key, _ in env.system.plb.items()] == [2]
        env.kernel.set_page_rights(env.owner, env.vpns[1], Rights.READ)
        # A stale superpage entry still speaks for the overridden page.
        env.system.plb.fill(env.owner.pd_id, env.kernel.params.vaddr(base), Rights.RW, level=2)
        if env.pin(
            half,
            [
                f"plb: entry (pd={env.owner.pd_id}, unit={base >> 2:#x}, level=2) "
                f"grants rw- on vpn {env.vpns[1]:#x} but tables allow r-- "
                f"(excess -w-)"
            ],
            repairs=1, checked=5,
        ):
            assert dict(env.system.plb.items()) == {}

    def test_superpage_translation_with_two_stale_pages_is_dropped(self, n_cpus, half):
        env = Warm("plb", n_cpus, tlb_levels=(2, 0))
        base = env.vpns[0]
        frames = [env.pfn(vpn) for vpn in env.vpns]
        assert frames == list(range(frames[0], frames[0] + 4))
        env.kernel.unmap_page(env.vpns[2])
        env.kernel.unmap_page(env.vpns[3])
        env.system.tlb.fill(base, frames[0], level=2)
        unit = base >> 2
        if env.pin(
            half,
            [
                f"tlb: entry (level=2, unit={unit:#x}) covers non-resident "
                f"vpn {vpn:#x}"
                for vpn in env.vpns[2:]
            ],
            repairs=1, checked=7,
        ):
            assert (2, unit) not in dict(env.system.tlb.items())


# --------------------------------------------------------------------- #
# Page-group system: the AID-tagged TLB and the group holder


@CPUS
@HALVES
class TestPageGroup:
    def test_clean_kernel(self, n_cpus, half):
        Warm("pagegroup", n_cpus).pin(half, [], repairs=0, checked=5)

    def test_wrong_aid_and_rights_are_two_rewrites(self, n_cpus, half):
        env = Warm("pagegroup", n_cpus)
        vpn = env.vpns[1]
        table = env.kernel.group_table
        aid, rights = table.aid_of(vpn), table.rights_of(vpn)
        entry = dict(env.system.tlb.items())[vpn]
        entry.aid = aid + 5
        entry.rights = Rights.RWX
        if env.pin(
            half,
            [
                f"pgtlb: vpn {vpn:#x} tagged aid {aid + 5}, table says {aid}",
                f"pgtlb: vpn {vpn:#x} holds rights rwx, table says {rights.describe()}",
            ],
            repairs=2, checked=5,
        ):
            assert (entry.aid, entry.rights) == (aid, rights)

    def test_entry_the_group_table_does_not_back_is_dropped_silently(self, n_cpus, half):
        env = Warm("pagegroup", n_cpus)
        vpn = env.vpns[0]
        env.kernel.group_table.forget(vpn)
        if env.pin(half, [], repairs=1, checked=5):
            assert vpn not in env.system.tlb

    def test_group_the_domain_does_not_hold_is_dropped(self, n_cpus, half):
        env = Warm("pagegroup", n_cpus)
        env.system.groups.install(PIDEntry(group=99))
        if env.pin(
            half,
            [f"groups: holder has group 99 which domain {env.owner.pd_id} does not hold"],
            repairs=1, checked=6,
        ):
            assert 99 not in env.system.groups.resident_groups()

    def test_flipped_write_disable_is_dropped(self, n_cpus, half):
        env = Warm("pagegroup", n_cpus)
        (group,) = env.system.groups.resident_groups()
        held = env.owner.groups[group].write_disable
        env.system.groups.install(PIDEntry(group=group, write_disable=not held))
        if env.pin(
            half,
            [
                f"groups: group {group} write_disable={not held} in holder, "
                f"{held} in domain {env.owner.pd_id}"
            ],
            repairs=1, checked=5,
        ):
            assert env.system.groups.resident_groups() == []


# --------------------------------------------------------------------- #
# Conventional system: the ASID-tagged TLB


def asid_entry(env: Warm, vpn: int):
    return dict(env.system.tlb.items())[(env.owner.pd_id, vpn)]


@CPUS
@HALVES
class TestConventional:
    def test_clean_kernel(self, n_cpus, half):
        Warm("conventional", n_cpus).pin(half, [], repairs=0, checked=4)

    def test_excess_is_reported_and_rewritten(self, n_cpus, half):
        env = Warm("conventional", n_cpus)
        vpn, pd = env.vpns[3], env.owner.pd_id
        asid_entry(env, vpn).rights = Rights.RWX
        if env.pin(
            half,
            [f"asidtlb: (asid={pd}, vpn={vpn:#x}) grants rwx but domain {pd}'s tables allow rw-"],
            repairs=1, checked=4,
        ):
            assert asid_entry(env, vpn).rights == Rights.RW

    def test_under_grant_is_rewritten_silently(self, n_cpus, half):
        env = Warm("conventional", n_cpus)
        vpn = env.vpns[0]
        asid_entry(env, vpn).rights = Rights.READ
        if env.pin(half, [], repairs=1, checked=4):
            assert asid_entry(env, vpn).rights == Rights.RW

    def test_stale_frame_and_excess_are_one_drop(self, n_cpus, half):
        env = Warm("conventional", n_cpus)
        vpn, pd = env.vpns[2], env.owner.pd_id
        pfn = env.pfn(vpn)
        entry = asid_entry(env, vpn)
        entry.pfn = pfn + 9
        entry.rights = Rights.RWX
        if env.pin(
            half,
            [
                f"asidtlb: (asid={pd}, vpn={vpn:#x}) maps to pfn {pfn + 9:#x}, "
                f"table says {pfn:#x}",
                f"asidtlb: (asid={pd}, vpn={vpn:#x}) grants rwx but domain "
                f"{pd}'s tables allow rw-",
            ],
            repairs=1, checked=4,
        ):
            assert (pd, vpn) not in dict(env.system.tlb.items())


# --------------------------------------------------------------------- #
# Data caches: reported, never repaired


@CPUS
@HALVES
@pytest.mark.parametrize("model", ["plb", "pagegroup", "conventional"])
def test_stale_data_cache_line_is_reported_not_repaired(model, n_cpus, half):
    env = Warm(model, n_cpus)
    vpn = env.vpns[0]
    pfn = env.pfn(vpn)
    env.kernel.unmap_page(vpn, flush_cache=False)
    if model == "plb":
        message = f"dcache: holds line of non-resident vpn {vpn:#x}"
    else:
        message = f"dcache: holds line of frame {pfn:#x} which backs no resident page"
    checked = {"plb": 7, "pagegroup": 4, "conventional": 3}[model]
    env.pin(half, [message], repairs=0, checked=checked, recheck=[message])
