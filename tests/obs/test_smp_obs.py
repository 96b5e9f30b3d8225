"""SMP × observability: tracers and collectors on multi-CPU kernels.

Every CPU of a kernel charges one store, ``kernel.stats``, which the
tracer watches; ``Kernel.merged_stats()`` is a snapshot of it.  These
tests pin that identity while a tracer + live collector are attached:
a span costs what the merged delta across it costs, on any number of
CPUs.
"""

from __future__ import annotations

import pytest

from repro.core.costs import cycles_for
from repro.core.rights import Rights
from repro.obs.live import LiveCollector
from repro.obs.tracer import Tracer
from repro.os.kernel import MODELS, Kernel
from repro.sim.machine import Machine, SMPMachine


def _drive_two_cpus(model: str, *, traced: bool):
    kernel = Kernel(model, n_frames=128, n_cpus=2)
    collector = LiveCollector(model)
    if traced:
        tracer = Tracer(kernel.stats, metrics=collector)
        kernel.attach_tracer(tracer)
    doms = [kernel.create_domain(f"d{i}") for i in range(2)]
    seg = kernel.create_segment("shared", 8)
    for dom in doms:
        kernel.attach(dom, seg, Rights.RW)
    machines = [Machine(kernel, cpu=ctx) for ctx in kernel.cpus]
    page = kernel.params.page_size
    for rounds in range(3):
        for cpu_id, machine in enumerate(machines):
            for p in range(8):
                machine.read(doms[cpu_id], (seg.base_vpn + p) * page)
    # Protection churn from CPU 0 shoots down CPU 1's cached rights.
    kernel.set_current_cpu(0)
    kernel.detach(doms[1], seg)
    machines[0].write(doms[0], seg.base_vpn * page)
    return kernel, collector


@pytest.mark.parametrize("model", MODELS)
def test_merged_stats_equals_per_cpu_stats_sum(model):
    """On 2 CPUs the merged view is the kernel's one store, and it holds
    CPU 1's references as well as CPU 0's."""
    kernel, _ = _drive_two_cpus(model, traced=True)
    assert kernel.merged_stats().as_dict() == kernel.stats.as_dict()
    # 3 rounds x 2 CPUs x 8 pages of reads, then CPU 0's one write.
    assert kernel.stats["refs"] == 3 * 2 * 8 + 1


@pytest.mark.parametrize("model", MODELS)
def test_cpu0_counters_stay_unprefixed(model):
    """Every CPU's memory system charges ``kernel.stats``: no CPU keeps a
    private store, and no counter carries a ``cpuN:`` prefix."""
    kernel, _ = _drive_two_cpus(model, traced=True)
    for ctx in kernel.cpus:
        assert ctx.system.stats is kernel.stats
        assert not hasattr(ctx, "stats")
    assert not any(
        name.startswith("cpu") and ":" in name for name in kernel.stats.as_dict()
    )


@pytest.mark.parametrize("model", MODELS)
def test_single_cpu_per_cpu_view_is_the_kernel_stats(model):
    kernel = Kernel(model, n_frames=128, n_cpus=1)
    dom = kernel.create_domain("d0")
    seg = kernel.create_segment("seg", 4)
    kernel.attach(dom, seg, Rights.RW)
    machine = Machine(kernel)
    for p in range(4):
        machine.read(dom, (seg.base_vpn + p) * kernel.params.page_size)
    assert kernel.cpus[0].system.stats is kernel.stats
    assert kernel.merged_stats().as_dict() == kernel.stats.as_dict()


@pytest.mark.parametrize(
    ("model", "cycles"), (("plb", 852), ("pagegroup", 1052), ("conventional", 852))
)
def test_span_sees_remote_cpu_work(model, cycles):
    """A span around a 4-page rights change on CPU 0 and four reads on
    CPU 1 costs exactly the merged delta across it.  With a private
    store per remote CPU the span missed CPU 1's references and read
    832, 932 and 832 cycles."""
    kernel = Kernel(model, n_cpus=2)
    tracer = Tracer(kernel.stats, references=False)
    kernel.attach_tracer(tracer)
    domain = kernel.create_domain("app")
    segment = kernel.create_segment("data", 4)
    kernel.attach(domain, segment, Rights.RW)
    smp = SMPMachine(kernel)
    vaddrs = [kernel.params.vaddr(vpn) for vpn in segment.vpns()]
    for cpu in (0, 1):
        for vaddr in vaddrs:
            smp.touch_on(cpu, domain, vaddr)
    kernel.set_current_cpu(0)
    before = kernel.merged_stats()
    with tracer.span("probe"):
        kernel.set_pages_rights(domain, list(segment.vpns()), Rights.READ)
        for vaddr in vaddrs:
            smp.touch_on(1, domain, vaddr)
    span = tracer.roots[-1]
    assert span.name == "probe"
    assert span.cycles == cycles_for(kernel.merged_stats().delta(before)) == cycles


@pytest.mark.parametrize("model", MODELS)
def test_collector_sees_verb_spans_under_multi_cpu(model):
    _, collector = _drive_two_cpus(model, traced=True)
    verbs = collector.slo_summary(1000)["latency_cycles_per_verb"]
    assert "kernel.attach" in verbs
    assert verbs["kernel.attach"]["count"] >= 2


@pytest.mark.parametrize("model", MODELS)
def test_tracer_attachment_does_not_change_merged_totals(model):
    """Tracing changes attribution, never the counted hardware events."""
    untraced, _ = _drive_two_cpus(model, traced=False)
    traced, _ = _drive_two_cpus(model, traced=True)
    assert (
        traced.merged_stats().as_dict() == untraced.merged_stats().as_dict()
    )
