"""Differential testing: each kernel against the gold model, on drawn streams.

Hypothesis draws op lists of the kernel oracle's vocabulary
(:mod:`repro.check.ops`) over a small fixed universe — three domains and
two four-page segments — and :class:`~repro.check.harness.LockstepHarness`
replays them through one model beside the gold model
(:mod:`repro.check.gold`).  Every reference is compared against gold
(allow/deny, fault reason, physical address), the structural invariants
run as the stream goes, and the end state is swept; any disagreement is
a bug in the hardware structures' maintenance.  The harness skips a
drawn op gold finds invalid (a detach of an unattached segment, say),
so any list is a valid stream.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.check import SCENARIOS, LockstepHarness
from repro.check.ops import (
    Attach,
    CreateDomain,
    CreateSegment,
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

N_DOMAINS = 3
N_SEGMENTS = 2
PAGES = 4
#: The gold model places the first segment at this VPN, the next one
#: right after it (four-page segments align to four pages).
FIRST_VPN = 0x100

#: The universe every drawn stream starts from: domains 1-3, segment 1
#: (populated) and segment 2 (demand-filled); a drawn set of
#: attachments (:data:`ATTACHMENTS`) follows it.
PREFIX = [CreateDomain(f"d{index}") for index in range(N_DOMAINS)] + [
    CreateSegment(f"s{index}", PAGES, index == 0) for index in range(N_SEGMENTS)
]

PDS = st.integers(1, N_DOMAINS)
SEGS = st.integers(1, N_SEGMENTS)
VPNS = st.integers(FIRST_VPN, FIRST_VPN + N_SEGMENTS * PAGES - 1)
GRANTS = st.sampled_from([Rights.READ, Rights.RW])
RIGHTS = st.sampled_from([Rights.NONE, Rights.READ, Rights.RW])
VADDRS = VPNS.map(DEFAULT_PARAMS.vaddr)
ACCESSES = st.sampled_from([AccessType.READ, AccessType.WRITE])

#: Every (domain, segment) pair of the universe.
PAIRS = [(pd, seg) for pd in range(1, N_DOMAINS + 1) for seg in range(1, N_SEGMENTS + 1)]


def _attach_ops(grants) -> list:
    return [
        Attach(pd, seg, rights) for (pd, seg), rights in zip(PAIRS, grants) if rights
    ]


#: A drawn starting set of attachments: each pair attached READ, RW or
#: not at all, so the rights verbs meet attached pairs from the start.
ATTACHMENTS = st.lists(
    st.one_of(st.none(), GRANTS), min_size=len(PAIRS), max_size=len(PAIRS)
).map(_attach_ops)

#: One drawn op: the rights verbs, paging, switches and references.
OPS = st.one_of(
    st.builds(Attach, PDS, SEGS, GRANTS),
    st.builds(Detach, PDS, SEGS),
    st.builds(SetPageRights, PDS, VPNS, RIGHTS),
    st.builds(SetSegmentRights, PDS, SEGS, RIGHTS),
    st.builds(SetRightsAll, VPNS, RIGHTS),
    st.builds(PageOut, VPNS),
    st.builds(PageIn, VPNS),
    st.builds(Switch, PDS),
    st.builds(Touch, PDS, VADDRS, ACCESSES),
)


class TestKernelAgainstOracle:
    @settings(max_examples=40, deadline=None)
    @pytest.mark.parametrize("model", ["plb", "conventional", "pagegroup"])
    @given(attachments=ATTACHMENTS, ops=st.lists(OPS, min_size=10, max_size=50))
    def test_allow_deny_matches_oracle(self, model, attachments, ops):
        harness = LockstepHarness((model,), scenario=SCENARIOS["fuzz"])
        report = harness.run(PREFIX + attachments + ops)
        assert report.ok, report.divergence.describe()
