"""The crash-recover sweep: a crash at every mutation boundary of every verb.

:func:`run_crash_recover` takes every journaled kernel verb, first
enumerates the verb's mutation boundaries with a crash-free run, then
crashes a fresh fixture at each boundary in turn, recovers through the
intent journal, and checks the authoritative state fingerprint is
byte-identical to the pre-verb snapshot.

Seeded fault plans are checked against the gold model by the kernel
oracle, :mod:`repro.check.harness`.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass, field

from repro.check.invariants import check_invariants
from repro.core.rights import Rights
from repro.faults.journal import IntentJournal, SimulatedCrash
from repro.os.kernel import MODELS, Kernel
from repro.os.pager import UserLevelPager


# --------------------------------------------------------------------- #
# Crash-recovery sweep


@dataclass
class CrashRecoverResult:
    """Every (model, verb, crash point) and what recovery restored."""

    cases: int = 0
    crash_points: int = 0
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def dump(self) -> dict:
        return {
            "cases": self.cases,
            "crash_points": self.crash_points,
            "failures": list(self.failures),
        }


class _Fixture:
    """Two domains, two segments, recognizable frame data."""


def _crash_fixture(model: str) -> _Fixture:
    fx = _Fixture()
    kernel = Kernel(model, n_frames=64)
    fx.kernel = kernel
    fx.pager = UserLevelPager(kernel)
    fx.a = kernel.create_domain("app-a")
    fx.b = kernel.create_domain("app-b")
    fx.s1 = kernel.create_segment("s1", 4, populate=True)
    fx.s2 = kernel.create_segment("s2", 4, populate=True)
    kernel.attach(fx.a, fx.s1, Rights.RW)
    kernel.attach(fx.b, fx.s1, Rights.READ)
    kernel.attach(fx.a, fx.s2, Rights.READ)
    kernel.switch_to(fx.a)
    for offset, vpn in enumerate(fx.s1.vpns()):
        pfn = kernel.translations.pfn_for(vpn)
        kernel.memory.write_page(pfn, bytes([0x40 + offset]) * kernel.params.page_size)
    fx.v0 = fx.s1.base_vpn
    fx.vpns = list(fx.s1.vpns()) + list(fx.s2.vpns())
    return fx


def _prepare_page_in(fx: _Fixture):
    fx.pager.page_out(fx.v0)  # committed setup, outside the journal
    return (lambda: fx.pager.page_in(fx.v0)), [fx.v0]


def _prepare_move(fx: _Fixture):
    group = fx.kernel.create_page_group()
    fx.a.grant_group(group)
    return (
        lambda: fx.kernel.move_page_to_group(fx.v0, group, rights=Rights.READ)
    ), [fx.v0]


def _crash_verbs(model: str) -> list:
    """(verb, builder) pairs; builder(fx) -> (fn, journaled vpns)."""
    verbs = [
        ("attach", lambda fx: (
            (lambda: fx.kernel.attach(fx.b, fx.s2, Rights.RW)), list(fx.s2.vpns())
        )),
        ("detach", lambda fx: (
            (lambda: fx.kernel.detach(fx.a, fx.s1)), list(fx.s1.vpns())
        )),
        ("page_out", lambda fx: (
            (lambda: fx.pager.page_out(fx.v0)), [fx.v0]
        )),
        ("page_in", _prepare_page_in),
    ]
    if model == "pagegroup":
        verbs.append(("revoke_group", lambda fx: (
            (lambda: fx.kernel.revoke_group(fx.b, fx.s1.aid)), list(fx.s1.vpns())
        )))
        verbs.append(("move_page_to_group", _prepare_move))
    return verbs


def _authority_fingerprint(fx: _Fixture) -> dict:
    """Everything recovery promises to restore, keyed for diffing.

    Frame numbers are deliberately excluded: recovery may re-allocate a
    page into a different frame; what must survive is residency, data,
    and protection — not the physical placement.
    """
    kernel = fx.kernel
    pages = {}
    for vpn in fx.vpns:
        pfn = kernel.translations.pfn_for(vpn)
        mapping = kernel.translations.mapping(vpn)
        pages[vpn] = (
            pfn is not None,
            kernel.memory.read_page(pfn) if pfn is not None else None,
            mapping.on_disk if mapping is not None else None,
            kernel.group_table.aid_of(vpn),
            kernel.group_table.rights_of(vpn),
            kernel.backing.peek(vpn),
            vpn in fx.pager._evicted,
        )
    domains = {}
    for pd_id, domain in kernel.domains.items():
        domains[pd_id] = (
            dict(domain.attachments),
            dict(domain.page_overrides),
            {g: e.write_disable for g, e in sorted(domain.groups.items())},
        )
    rights = {}
    for pd_id in kernel.domains:
        for vpn in fx.vpns:
            info = kernel.rights_for(pd_id, vpn)
            rights[(pd_id, vpn)] = None if info is None else info.rights
    return {"pages": pages, "domains": domains, "rights": rights}


def _first_difference(before: dict, after: dict) -> str:
    short = reprlib.Repr()
    short.maxstring = 32
    short.maxother = 48
    for section in before:
        for key, value in before[section].items():
            got = after[section].get(key)
            if got != value:
                return f"{section}[{key}]: {short.repr(value)} -> {short.repr(got)}"
    return "structure mismatch"


def run_crash_recover(
    models: tuple[str, ...] = MODELS, *, verbs: tuple[str, ...] | None = None
) -> CrashRecoverResult:
    """Crash every journaled verb at every boundary; verify recovery."""
    result = CrashRecoverResult()
    for model in models:
        for verb, build in _crash_verbs(model):
            if verbs is not None and verb not in verbs:
                continue
            result.cases += 1
            # Crash-free run: enumerate this verb's mutation boundaries.
            fx = _crash_fixture(model)
            journal = IntentJournal(fx.kernel, fx.pager)
            fn, vpns = build(fx)
            boundaries, _ = journal.run(verb, fn, vpns)
            problems = check_invariants(fx.kernel)
            if problems:
                result.failures.append(
                    f"{model}/{verb} committed: {'; '.join(problems[:2])}"
                )
            for crash_at in range(1, boundaries + 1):
                result.crash_points += 1
                fx = _crash_fixture(model)
                journal = IntentJournal(fx.kernel, fx.pager)
                fn, vpns = build(fx)
                before = _authority_fingerprint(fx)
                try:
                    journal.run(verb, fn, vpns, crash_at=crash_at)
                    result.failures.append(
                        f"{model}/{verb}@{crash_at}: crash did not fire"
                    )
                    continue
                except SimulatedCrash:
                    pass
                if not journal.recover():
                    result.failures.append(
                        f"{model}/{verb}@{crash_at}: nothing to recover"
                    )
                    continue
                after = _authority_fingerprint(fx)
                if after != before:
                    result.failures.append(
                        f"{model}/{verb}@{crash_at}: state differs after "
                        f"recovery — {_first_difference(before, after)}"
                    )
                problems = check_invariants(fx.kernel)
                if problems:
                    result.failures.append(
                        f"{model}/{verb}@{crash_at}: {'; '.join(problems[:2])}"
                    )
    return result
