"""Unit tests for the span tracer: attribution, the reference switch, unwrapped references."""

from __future__ import annotations

import json

import pytest

from repro.core.costs import DEFAULT_COSTS, cycles_for
from repro.core.rights import Rights
from repro.obs.export import chrome_trace
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.os.kernel import Kernel, MODELS
from repro.sim.machine import Machine
from repro.sim.stats import Stats
from repro.workloads.tracegen import RefPattern, TraceGenerator


def _run_refs(model: str, tracer=None, refs: int = 400) -> Stats:
    """One small deterministic reference stream; returns the stats delta."""
    kernel = Kernel(model)
    if tracer is not None:
        tracer_obj = tracer(kernel.stats)
        kernel.attach_tracer(tracer_obj)
    machine = Machine(kernel)
    domain = kernel.create_domain("app")
    segment = kernel.create_segment("data", 16)
    kernel.attach(domain, segment, Rights.RW)
    gen = TraceGenerator(7, kernel.params)
    before = kernel.stats.snapshot()
    for ref in gen.refs(domain.pd_id, segment, refs, RefPattern()):
        machine.touch(domain, ref.vaddr, ref.access)
    return kernel.stats.delta(before)


class TestAttribution:
    def test_nested_spans_sum_exactly(self):
        stats = Stats()
        tracer = Tracer(stats)
        with tracer.span("outer"):
            stats.inc("kernel.trap", 3)
            with tracer.span("inner.a"):
                stats.inc("plb.fill", 5)
            stats.inc("dcache.hit", 2)
            with tracer.span("inner.b"):
                stats.inc("tlb.fill", 4)
                with tracer.span("leaf"):
                    stats.inc("kernel.trap", 1)
        (outer,) = tracer.finish()
        inner_a, inner_b = outer.children
        (leaf,) = inner_b.children
        # Inclusive deltas include children; exclusive deltas do not.
        assert outer.delta["kernel.trap"] == 4
        assert outer.exclusive_delta() == {"kernel.trap": 3, "dcache.hit": 2}
        assert inner_b.delta == {"tlb.fill": 4, "kernel.trap": 1}
        assert inner_b.exclusive_delta() == {"tlb.fill": 4}
        assert leaf.delta == {"kernel.trap": 1}
        # Conservation: children inclusive + parent exclusive == parent
        # inclusive, in both counters and cycles.
        for parent in (outer, inner_b):
            summed = dict(parent.exclusive_delta())
            for child in parent.children:
                for name, count in child.delta.items():
                    summed[name] = summed.get(name, 0) + count
            assert summed == parent.delta
            assert parent.exclusive_cycles + sum(
                child.cycles for child in parent.children
            ) == parent.cycles

    def test_root_cycles_equal_cycles_for_of_delta(self):
        """The acceptance identity: attributed total == priced delta."""
        for model in MODELS:
            kernel = Kernel(model)
            machine = Machine(kernel)
            domain = kernel.create_domain("app")
            segment = kernel.create_segment("data", 16)
            kernel.attach(domain, segment, Rights.RW)
            gen = TraceGenerator(7, kernel.params)
            tracer = Tracer(kernel.stats)
            kernel.attach_tracer(tracer)
            before = kernel.stats.snapshot()
            with tracer.span("run"):
                for ref in gen.refs(domain.pd_id, segment, 300, RefPattern()):
                    machine.touch(domain, ref.vaddr, ref.access)
            (root,) = tracer.finish()
            delta = kernel.stats.delta(before)
            assert root.cycles == cycles_for(delta)

    def test_unpriced_counters_do_not_advance_the_clock(self):
        stats = Stats()
        tracer = Tracer(stats)
        with tracer.span("s"):
            stats.inc("some.unpriced.counter", 100)
        (span,) = tracer.finish()
        assert span.cycles == 0
        assert span.delta == {"some.unpriced.counter": 100}

    def test_clock_prices_with_default_weights(self):
        stats = Stats()
        tracer = Tracer(stats)
        with tracer.span("s"):
            stats.inc("kernel.trap", 2)
        (span,) = tracer.finish()
        assert span.cycles == 2 * DEFAULT_COSTS.weight_for("kernel.trap")
        assert tracer.clock_cycles == span.cycles

    def test_finish_with_open_span_raises(self):
        tracer = Tracer(Stats())
        handle = tracer.span("left.open")
        handle.__enter__()
        with pytest.raises(RuntimeError, match="left.open"):
            tracer.finish()

    def test_debug_monotonicity_check_passes_on_real_run(self):
        """Counters only grow over a traced run: the end snapshot is
        monotonic against the start one, and no span delta is negative."""
        seen = {}

        def tracer(stats):
            seen["stats"], seen["start"] = stats, stats.snapshot()
            seen["tracer"] = Tracer(stats)
            return seen["tracer"]

        delta = _run_refs("plb", tracer=tracer)
        assert delta["refs"] > 0
        seen["stats"].snapshot().assert_monotonic(seen["start"])
        spans = [span for root in seen["tracer"].finish() for span in root.walk()]
        assert spans
        assert all(count > 0 for span in spans for count in span.delta.values())


def _traced_refs(model: str, tracer, *, n_cpus: int = 1, refs: int = 300):
    """Attach ``tracer(kernel.stats)``, then run ``refs`` references per
    CPU inside one ``run`` span; returns the run span and the delta."""
    kernel = Kernel(model, n_cpus=n_cpus)
    kernel.attach_tracer(tracer(kernel.stats))
    domain = kernel.create_domain("app")
    segment = kernel.create_segment("data", 16)
    kernel.attach(domain, segment, Rights.RW)
    machines = [Machine(kernel, cpu=ctx) for ctx in kernel.cpus]
    gen = TraceGenerator(7, kernel.params)
    before = kernel.stats.snapshot()
    with kernel.tracer.span("run"):
        for machine in machines:
            for ref in gen.refs(domain.pd_id, segment, refs, RefPattern()):
                machine.touch(domain, ref.vaddr, ref.access)
    root = kernel.tracer.finish()[-1]
    return root, kernel.stats.delta(before)


class TestSampling:
    """``references`` is the one switch for per-reference spans."""

    def test_sample_every_one_records_everything(self):
        """With references on (the default), every reference is one
        ``mem.access`` span under the span that issued it."""
        root, delta = _traced_refs("plb", Tracer)
        accesses = [span for span in root.children if span.name == "mem.access"]
        assert len(accesses) == delta["refs"] == 300
        assert all(span.delta["refs"] == 1 for span in accesses)

    def test_sampled_out_spans_fold_into_parent(self):
        """With references off, nothing is lost: the enclosing span's
        exclusive delta absorbs every reference's events."""
        root, delta = _traced_refs(
            "plb", lambda stats: Tracer(stats, references=False)
        )
        # The one child is the first touch's domain switch, a verb.
        assert [span.name for span in root.children] == ["kernel.switch"]
        own = root.exclusive_delta()
        assert own["refs"] == delta["refs"] == 300
        summed = dict(own)
        for name, count in root.children[0].delta.items():
            summed[name] = summed.get(name, 0) + count
        assert summed == delta.as_dict()

    def test_traced_totals_invariant_under_sampling(self):
        """Attribution is exact, not extrapolated: the root span's
        inclusive cycles are the same with references on or off."""
        totals = set()
        for references in (True, False):
            root, delta = _traced_refs(
                "plb", lambda stats: Tracer(stats, references=references)
            )
            assert root.cycles == cycles_for(delta)
            totals.add(root.cycles)
        assert len(totals) == 1


class TestVerbLevelTracing:
    """``references=False`` records kernel verbs, never references."""

    def test_sample_every_zero_records_no_sampled_span(self):
        """The switch holds on every CPU of the kernel: no CPU's
        reference opens a span."""
        root, delta = _traced_refs(
            "pagegroup",
            lambda stats: Tracer(stats, references=False),
            n_cpus=2, refs=50,
        )
        assert delta["refs"] == 100
        assert "mem.access" not in {span.name for span in root.walk()}

    @pytest.mark.parametrize("model", MODELS)
    def test_every_cpu_opens_a_reference_span(self, model):
        """A references tracer wraps every CPU's reference path, not only
        the current CPU's."""
        kernel = Kernel(model, n_cpus=2)
        kernel.attach_tracer(Tracer(kernel.stats))
        for ctx in kernel.cpus:
            assert ctx.system.access_fast is not ctx.system._access_fast
        domain = kernel.create_domain("app")
        segment = kernel.create_segment("data", 1)
        kernel.attach(domain, segment, Rights.RW)
        Machine(kernel, cpu=kernel.cpus[1]).read(
            domain, kernel.params.vaddr(segment.base_vpn)
        )
        (access,) = [
            span for span in kernel.tracer.finish() if span.name == "mem.access"
        ]
        assert access.delta["refs"] == 1

    @pytest.mark.parametrize("model", MODELS)
    def test_reference_path_stays_unwrapped_and_totals_exact(self, model):
        kernel = Kernel(model)
        tracer = Tracer(kernel.stats, references=False)
        kernel.attach_tracer(tracer)
        assert kernel.system.access_fast == kernel.system._access_fast
        machine = Machine(kernel)
        domain = kernel.create_domain("app")
        segment = kernel.create_segment("data", 16)
        gen = TraceGenerator(7, kernel.params)
        before = kernel.stats.snapshot()
        with tracer.span("run"):
            kernel.attach(domain, segment, Rights.RW)
            for ref in gen.refs(domain.pd_id, segment, 300, RefPattern()):
                machine.touch(domain, ref.vaddr, ref.access)
        (root,) = tracer.finish()
        names = {span.name for span in root.walk()}
        assert "kernel.attach" in names
        assert "mem.access" not in names
        assert root.cycles == cycles_for(kernel.stats.delta(before))


class TestSampledTraceRun:
    """``repro trace`` records a span per reference."""

    def test_sampled_run_records_mem_access_with_exact_totals(self):
        from repro.cli import _run_traced
        from repro.obs.metrics import attributed_cycles

        _, tracer, spans, delta = _run_traced("rpc", "plb")
        accesses = [
            span for root in spans for span in root.walk()
            if span.name == "mem.access"
        ]
        assert tracer.references
        assert len(accesses) == delta["refs"] > 0
        assert attributed_cycles(spans) == cycles_for(delta)


class TestDisabledFastPath:
    """The reference path (``access_fast``) with tracing off, verb-level
    or detached: no wrapper left behind and no counter moved."""

    def test_null_tracer_span_is_reusable_noop(self):
        first = NULL_TRACER.span("anything", pd=1)
        second = NULL_TRACER.span("other")
        assert first is second
        with first:
            pass
        assert NULL_TRACER.finish() == []
        assert not NULL_TRACER.active

    def test_untraced_run_statistics_are_untouched(self):
        """A kernel with no tracer attached counts exactly what the seed
        counted: instrumentation adds zero counters."""
        plain = _run_refs("plb")
        nulled = _run_refs("plb", tracer=lambda s: NULL_TRACER)
        assert plain.as_dict() == nulled.as_dict()

    def test_traced_run_adds_no_counters_either(self):
        """Tracing observes counters; it must never create them — with
        per-reference spans (``references=True``) or, as serve runs it,
        verbs only (``references=False``)."""
        plain = _run_refs("pagegroup")
        for references in (True, False):
            traced = _run_refs(
                "pagegroup",
                tracer=lambda s: Tracer(s, references=references),
            )
            assert plain.as_dict() == traced.as_dict(), references

    def test_attach_then_detach_restores_unwrapped_access(self):
        kernel = Kernel("plb")
        tracer = Tracer(kernel.stats)
        kernel.attach_tracer(tracer)
        assert kernel.system.access_fast is not kernel.system._access_fast
        kernel.system.attach_tracer(NULL_TRACER)
        assert kernel.system.access_fast == kernel.system._access_fast


class TestChromeRoundTrip:
    def test_chrome_trace_round_trips_json(self):
        stats = Stats()
        tracer = Tracer(stats)
        with tracer.span("outer", pd=3):
            stats.inc("kernel.trap")
            with tracer.span("inner"):
                stats.inc("plb.fill", 2)
        spans = tracer.finish()
        doc = json.loads(json.dumps(chrome_trace(spans)))
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert [e["name"] for e in events] == ["outer", "inner"]
        outer, inner = events
        assert outer["args"]["attrs"] == {"pd": 3}
        assert inner["args"]["delta"] == {"plb.fill": 2}
        # Complete events nest by interval on the shared timeline.
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"]
