"""A single-page Table 1 verb is its range verb called with one page.

Each pair below is run on twin kernels — one calls the single-page
verb, the other the range verb with a one-page batch — across every
model, one and four CPUs, and the bus's batching on and off.  The twins
must agree in every observable: merged counter deltas (trap, bus and
hardware counters), the spans a recording tracer sees, the verb's
return value, a clean invariant audit, and every CPU's answer to every
(domain, page, read/write) probe.  A two-page call must still charge as
a range: its own trap and span labels, and one batch per remote CPU.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import pytest

from repro.check.invariants import check_invariants
from repro.core.rights import AccessType, Rights
from repro.obs.tracer import Tracer
from repro.os.kernel import MODELS, Kernel
from repro.sim.machine import SMPMachine

PAGES = 4


@dataclass(frozen=True)
class Pair:
    """One Table 1 row: its single-page and range verbs, and the labels
    a batch of K >= 2 pages charges."""

    single: Callable
    batch: Callable
    models: tuple[str, ...]
    #: ``kernel.syscall.<trap>`` a batch charges.
    trap: str
    #: The span a batch opens, or None for verbs without one.
    span: str | None
    #: Counter family and ``verb.<label>`` of the batch's bus messages.
    family: str
    verb: str


PAIRS = {
    "set_page_rights": Pair(
        lambda k, env, vpn: k.set_page_rights(env.domains[0], vpn, Rights.READ),
        lambda k, env, vpns: k.set_pages_rights(env.domains[0], vpns, Rights.READ),
        MODELS, "set_pages_rights", "kernel.set_pages_rights",
        "smp.shootdown", "set_pages_rights",
    ),
    "set_rights_all_domains": Pair(
        lambda k, env, vpn: k.set_rights_all_domains(vpn, Rights.READ),
        lambda k, env, vpns: k.set_pages_rights_all_domains(vpns, Rights.READ),
        MODELS, "set_rights_all", "kernel.set_rights_all_pages",
        "smp.shootdown", "set_rights_all",
    ),
    "move_page_to_group": Pair(
        lambda k, env, vpn: k.move_page_to_group(vpn, env.group, rights=Rights.READ),
        lambda k, env, vpns: k.move_pages_to_group(vpns, env.group, rights=Rights.READ),
        ("pagegroup",), "move_pages", None,
        "smp.shootdown", "move_page",
    ),
    "set_page_rights_global": Pair(
        lambda k, env, vpn: k.set_page_rights_global(vpn, Rights.READ),
        lambda k, env, vpns: k.set_pages_rights_global(vpns, Rights.READ),
        ("pagegroup",), "set_page_rights_global", None,
        "smp.shootdown", "set_rights_global",
    ),
    "unmap_page": Pair(
        lambda k, env, vpn: k.unmap_page(vpn),
        lambda k, env, vpns: k.unmap_pages(vpns),
        MODELS, "unmap_pages", "kernel.unmap_pages",
        "smp.tlb_shootdown", "unmap_page",
    ),
    "free_page": Pair(
        lambda k, env, vpn: k.free_page(vpn),
        lambda k, env, vpns: k.free_pages(vpns),
        MODELS, "unmap_pages", "kernel.unmap_pages",
        "smp.tlb_shootdown", "unmap_page",
    ),
}

CASES = [
    (name, model)
    for name, pair in PAIRS.items()
    for model in MODELS
    if model in pair.models
]


@dataclass
class Env:
    kernel: Kernel
    domains: list
    vpns: list[int]
    group: int | None


def staged(model: str, n_cpus: int, batch: bool) -> Env:
    """Two domains sharing a segment RW, warm on every CPU, traced."""
    kernel = Kernel(model, n_frames=64, n_cpus=n_cpus)
    kernel.bus.batch = batch
    domains = [kernel.create_domain(f"d{i}") for i in range(2)]
    segment = kernel.create_segment("shared", PAGES)
    for domain in domains:
        kernel.attach(domain, segment, Rights.RW)
    group = None
    if model == "pagegroup":
        group = kernel.create_page_group()
        for domain in domains:
            kernel.grant_group(domain, group)
    smp = SMPMachine(kernel)
    for cpu in range(n_cpus):
        # Domain 0 goes last, so it is the running domain on every CPU.
        for domain in domains + domains[:1]:
            for vpn in segment.vpns():
                smp.touch_on(cpu, domain, kernel.params.vaddr(vpn), AccessType.WRITE)
    kernel.set_current_cpu(0)
    kernel.attach_tracer(Tracer(kernel.stats))
    return Env(kernel, domains, list(segment.vpns()), group)


def observe(env: Env, call) -> dict:
    """Run ``call`` and gather everything a twin must agree on."""
    kernel = env.kernel
    before = kernel.merged_stats()
    returned = call()
    delta = kernel.merged_stats().delta(before).as_dict()
    spans = [
        (span.name, span.attrs) for root in kernel.tracer.roots for span in root.walk()
    ]
    problems = check_invariants(kernel)
    answers = []
    for ctx in kernel.cpus:
        system = ctx.system
        for domain in env.domains:
            system.switch_domain(domain.pd_id)
            for vpn in env.vpns:
                vaddr = kernel.params.vaddr(vpn)
                for access in (AccessType.READ, AccessType.WRITE):
                    result = system.access_fast(vaddr, access)
                    answers.append((type(result).__name__, getattr(result, "reason", None)))
    return {
        "delta": {name: count for name, count in delta.items() if count},
        "spans": spans,
        "returned": returned,
        "problems": problems,
        "answers": answers,
    }


@pytest.mark.parametrize("batch", [True, False], ids=["batch", "no-batch"])
@pytest.mark.parametrize("n_cpus", [1, 4])
@pytest.mark.parametrize("name,model", CASES)
def test_one_page_range_call_is_the_single_page_verb(name, model, n_cpus, batch):
    pair = PAIRS[name]
    single, ranged = staged(model, n_cpus, batch), staged(model, n_cpus, batch)
    vpn = single.vpns[1]
    one = observe(single, lambda: pair.single(single.kernel, single, vpn))
    many = observe(ranged, lambda: pair.batch(ranged.kernel, ranged, [vpn]))
    assert one["problems"] == [] and many["problems"] == []
    if isinstance(many["returned"], dict):
        many["returned"] = many["returned"][vpn]
    assert many == one


@pytest.mark.parametrize("name,model", CASES)
def test_two_page_call_charges_as_a_range(name, model):
    pair = PAIRS[name]
    env = staged(model, 4, True)
    out = observe(env, lambda: pair.batch(env.kernel, env, env.vpns[1:3]))
    delta = out["delta"]
    assert out["problems"] == []
    assert delta[f"kernel.syscall.{pair.trap}"] == 1
    names = [span for span, _ in out["spans"]]
    assert names == ([pair.span] if pair.span else [])
    if pair.span:
        assert out["spans"][0][1]["pages"] == 2
    msgs = delta[f"{pair.family}.msgs"]
    assert msgs >= 3  # at least one message per remote CPU
    assert delta[f"{pair.family}.verb.{pair.verb}"] == msgs
    assert delta[f"{pair.family}.batches"] == msgs
    assert delta[f"{pair.family}.batched_entries"] == 2 * msgs
