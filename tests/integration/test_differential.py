"""The kernel oracle as a tier-1 suite, plus its bug-detection teeth.

The parametrized half replays seeded scenario streams through all three
memory systems in lockstep against the gold model — through the pager,
on one CPU and on two CPUs over two authority shards — and requires
zero divergence.  The second half proves the oracle actually catches the bug
class it was built for: re-injecting the historical first-hit-stop
``ProtectionLookasideBuffer.invalidate`` (which left stale sibling-level
entries granting revoked rights) must produce a divergence with a
minimized, replayable repro dump, and the structural invariant sweep
must independently flag the stale entry.
"""

from __future__ import annotations

import pytest

from repro.check import SCENARIOS, check_invariants, ops_from_dicts, run_check
from repro.check.harness import LockstepHarness, minimize_ops
from repro.check.ops import (
    Attach,
    CreateDomain,
    CreateSegment,
    SetPageRights,
    SetSegmentRights,
    Touch,
)
from repro.core.params import DEFAULT_PARAMS
from repro.core.rights import AccessType, Rights

from tests.check.test_mutants import mutant_named

SEEDS = (0, 1, 2)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("seed", SEEDS)
def test_models_agree_with_gold(scenario, seed):
    result = run_check(scenario, seed, n_ops=120)
    assert result.ok, result.divergence.describe()
    assert result.refs_checked > 0


def test_single_model_subset_runs():
    result = run_check("fuzz", 0, ("pagegroup",), n_ops=80)
    assert result.ok


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("seed", SEEDS)
def test_models_agree_with_gold_on_two_cpus_two_shards(scenario, seed):
    """References alternate between two CPUs, so every rights change
    must reach the other CPU's cached state before its next reference."""
    result = run_check(scenario, seed, n_ops=120, n_cpus=2, n_shards=2)
    assert result.ok, result.divergence.describe()


def test_rights_set_while_paged_out_survive_page_in():
    """fuzz seed 19 changes a page's rights while the pager holds it;
    page-in used to write the pre-eviction rights back over the change."""
    result = run_check("fuzz", 19)
    assert result.ok, result.divergence.describe()


# --------------------------------------------------------------------- #
# Injected mutation: the stale-rights bug the oracle was built to catch
# (the first-hit-stop invalidate of tests/check/test_mutants.py)


def _stale_rights_ops():
    """Directed sequence leaving a stale level-0 RW entry under the bug.

    The domain ends up holding entries at both configured levels (0 and
    2) for the same page; the final revocation must sweep both, and the
    buggy invalidate removes only the superpage entry.
    """
    va = DEFAULT_PARAMS.vaddr
    return [
        CreateDomain("d"),
        CreateSegment("s", 8, True),
        Attach(1, 1, Rights.RW),
        Touch(1, va(0x100), AccessType.READ),        # fills level-2 RW
        SetPageRights(1, 0x100, Rights.READ),        # invalidate, refill L0
        Touch(1, va(0x100), AccessType.READ),        # fills level-0 READ
        Touch(1, va(0x101), AccessType.READ),        # fills level-0 RW
        SetSegmentRights(1, 1, Rights.RW),           # sweeps L0 in place
        Touch(1, va(0x102), AccessType.READ),        # fills level-2 RW again
        SetPageRights(1, 0x100, Rights.NONE),        # must remove BOTH levels
        Touch(1, va(0x100), AccessType.READ),        # stale L0 grants this
    ]


@pytest.fixture
def buggy_invalidate(monkeypatch):
    mutant_named("plb-invalidate-stops-at-first-hit").inject(monkeypatch)


def _harness():
    return LockstepHarness(("plb",), scenario=SCENARIOS["fuzz"])


def test_directed_sequence_clean_on_fixed_plb():
    report = _harness().run(_stale_rights_ops())
    assert report.ok, report.divergence.describe()


def test_injected_stale_rights_bug_is_caught(buggy_invalidate):
    report = _harness().run(_stale_rights_ops())
    assert not report.ok
    divergence = report.divergence
    assert divergence.model == "plb"
    assert divergence.kind == "outcome"
    assert divergence.expected == "prot/denied"
    assert divergence.observed == "allowed"


def test_injected_bug_survives_minimization_and_replays(buggy_invalidate):
    ops = _stale_rights_ops()
    minimized = minimize_ops(_harness, ops)
    assert 0 < len(minimized) <= len(ops)
    # The minimized stream must still reproduce after a serialization
    # round trip — that is what makes the dump a repro.
    replayed = ops_from_dicts(op.to_dict() for op in minimized)
    assert not _harness().run(replayed).ok


def test_injected_bug_flagged_by_invariant_sweep(buggy_invalidate):
    # Even without the final touch misclassifying a reference, the
    # harness's trailing structural sweep flags the stale PLB entry.
    harness = _harness()
    report = harness.run(_stale_rights_ops()[:-1])  # stop before the touch
    assert not report.ok
    assert report.divergence.kind == "invariant"
    assert "excess" in report.divergence.observed
    problems = check_invariants(harness.kernels["plb"])
    assert any("excess" in line for line in problems)


def test_run_check_dump_carries_span_trail():
    """A divergence dump includes ops, divergence and the span trail."""
    import json

    from repro.check.harness import CheckRunResult, Divergence

    result = CheckRunResult(
        scenario="fuzz", seed=0, models=("plb",), ok=False,
        ops_total=3, refs_checked=1,
        divergence=Divergence(
            op_index=2, op=_stale_rights_ops()[0], model="plb",
            kind="outcome", expected="prot/denied", observed="allowed",
        ),
        minimized=_stale_rights_ops()[:3],
        span_trail=["kernel.attach(pd=1)"],
    )
    dump = json.loads(json.dumps(result.dump()))
    assert dump["divergence"]["model"] == "plb"
    assert len(dump["ops"]) == 3
    assert dump["span_trail"] == ["kernel.attach(pd=1)"]
    assert ops_from_dicts(dump["ops"]) == _stale_rights_ops()[:3]
