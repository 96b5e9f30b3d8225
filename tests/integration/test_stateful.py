"""Stateful model-based testing of the kernel (hypothesis rule machine).

Hypothesis drives arbitrary interleavings of the kernel's rights verbs,
paging, domain switches and references.  Each rule appends ops of the
kernel oracle's vocabulary (:mod:`repro.check.ops`) to one stream, which
starts from the universe of :mod:`tests.integration.test_oracle` and a
drawn set of attachments.  At teardown
:class:`~repro.check.harness.LockstepHarness` replays the stream through
every model beside the gold model (:mod:`repro.check.gold`): on one CPU
and on two CPUs over two authority shards, with no fault plan (every
reference compared) and under the ``mixed`` plan (recovery must
converge to gold).
"""

from __future__ import annotations

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

from repro.check import SCENARIOS, LockstepHarness
from repro.check.ops import (
    Attach,
    Detach,
    PageIn,
    PageOut,
    SetPageRights,
    SetRightsAll,
    SetSegmentRights,
    Switch,
    Touch,
)
from repro.core.params import DEFAULT_PARAMS
from repro.core.rights import AccessType, Rights
from repro.faults.plan import FaultPlan
from repro.os.kernel import MODELS

from tests.integration.test_oracle import (
    ACCESSES,
    ATTACHMENTS,
    FIRST_VPN,
    GRANTS,
    PAGES,
    PDS,
    PREFIX,
    RIGHTS,
    SEGS,
    VADDRS,
    VPNS,
)

#: (CPUs, authority shards) of each judging run.
LAYOUTS = ((1, 1), (2, 2))


class KernelMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.ops = list(PREFIX)

    # ------------------------------------------------------------------ #
    # Rules: each appends ops

    @initialize(attachments=ATTACHMENTS)
    def attach_some(self, attachments):
        """Start from a drawn set of attachments."""
        self.ops.extend(attachments)

    @rule(pd=PDS, seg=SEGS, rights=GRANTS)
    def attach(self, pd, seg, rights):
        self.ops.append(Attach(pd, seg, rights))

    @rule(pd=PDS, seg=SEGS)
    def detach(self, pd, seg):
        self.ops.append(Detach(pd, seg))

    @rule(pd=PDS, vpn=VPNS, rights=RIGHTS)
    def set_page_rights(self, pd, vpn, rights):
        self.ops.append(SetPageRights(pd, vpn, rights))

    @rule(pd=PDS, seg=SEGS, rights=RIGHTS)
    def set_segment_rights(self, pd, seg, rights):
        self.ops.append(SetSegmentRights(pd, seg, rights))

    @rule(vpn=VPNS, rights=RIGHTS)
    def set_rights_all(self, vpn, rights):
        self.ops.append(SetRightsAll(vpn, rights))

    @rule(vpn=VPNS)
    def page_out(self, vpn):
        self.ops.append(PageOut(vpn))

    @rule(vpn=VPNS)
    def page_in(self, vpn):
        self.ops.append(PageIn(vpn))

    @rule(pd=PDS)
    def switch(self, pd):
        self.ops.append(Switch(pd))

    @rule(pd=PDS, refs=st.lists(st.tuples(VADDRS, ACCESSES), min_size=1, max_size=4))
    def touch(self, pd, refs):
        """A burst of references by one domain: the observations."""
        self.ops.extend(Touch(pd, vaddr, access) for vaddr, access in refs)

    @rule(
        pd=PDS, seg=SEGS, pages=st.permutations(range(PAGES)),
        grant=GRANTS, revoke=st.sampled_from([Rights.NONE, Rights.READ]),
    )
    def revoke_cycle(self, pd, seg, pages, grant, revoke):
        """Grant a page and fill its page-level entry, clear the override
        and fill the superpage entry through a sibling, then revoke the
        page and write it: the shortest path to one domain holding both
        levels' PLB entries for a revoked page (each segment is one
        level-2 unit of the ``fuzz`` scenario's PLB)."""
        base = FIRST_VPN + (seg - 1) * PAGES
        target, sibling = (base + page for page in pages[:2])
        vaddr = DEFAULT_PARAMS.vaddr
        self.ops.extend([
            SetPageRights(pd, target, grant),
            Touch(pd, vaddr(target), AccessType.READ),
            SetSegmentRights(pd, seg, Rights.RW),
            Touch(pd, vaddr(sibling), AccessType.READ),
            SetPageRights(pd, target, revoke),
            Touch(pd, vaddr(target), AccessType.WRITE),
        ])

    # ------------------------------------------------------------------ #
    # The judgement

    def teardown(self):
        plans = (None, FaultPlan.generate("mixed", 0, len(self.ops)))
        for n_cpus, n_shards in LAYOUTS:
            for plan in plans:
                harness = LockstepHarness(
                    MODELS, scenario=SCENARIOS["fuzz"], plan=plan,
                    n_cpus=n_cpus, n_shards=n_shards,
                )
                report = harness.run(self.ops)
                assert report.ok, (
                    f"cpus={n_cpus} plan={plan and plan.name}: "
                    + report.divergence.describe()
                )


KernelMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
TestKernelStateMachine = KernelMachine.TestCase
