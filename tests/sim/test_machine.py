"""Tests for the trace-driven machine and its fault-retry loop."""

from __future__ import annotations

import pytest

from repro.core.rights import AccessType, Rights
from repro.os.kernel import MODELS, Kernel, SegmentationViolation
from repro.sim.machine import FaultLoop, Machine
from repro.sim.trace import Ref, Switch

from tests.conftest import make_attached_segment


class TestTouch:
    def test_touch_switches_domain_automatically(self, kernel):
        machine = Machine(kernel)
        domain, segment = make_attached_segment(kernel)
        machine.read(domain, kernel.params.vaddr(segment.base_vpn))
        assert kernel.system.current_domain == domain.pd_id

    def test_touch_does_not_reswitch(self, kernel):
        machine = Machine(kernel)
        domain, segment = make_attached_segment(kernel)
        machine.read(domain, kernel.params.vaddr(segment.base_vpn))
        switches = kernel.stats["domain_switch"]
        machine.read(domain, kernel.params.vaddr(segment.base_vpn))
        assert kernel.stats["domain_switch"] == switches

    def test_fault_counts_reported(self, kernel):
        machine = Machine(kernel)
        domain = kernel.create_domain("d")
        segment = kernel.create_segment("s", 2, populate=False)
        kernel.attach(domain, segment, Rights.RW)
        result = machine.write(domain, kernel.params.vaddr(segment.base_vpn))
        assert result.page_faults == 1
        assert result.faulted

    def test_unhandled_fault_propagates(self, kernel):
        machine = Machine(kernel)
        domain = kernel.create_domain("d")
        with pytest.raises(SegmentationViolation):
            machine.read(domain, 0x9999_0000_0000)

    def test_handler_that_never_fixes_raises_faultloop(self, plb_kernel):
        kernel = plb_kernel
        machine = Machine(kernel)
        domain, segment = make_attached_segment(kernel, rights=Rights.READ)
        # A handler that claims the fault but does not change anything.
        kernel.add_protection_handler(lambda fault: True)
        with pytest.raises(FaultLoop):
            machine.write(domain, kernel.params.vaddr(segment.base_vpn))


class TestTraceRecording:
    def test_record_and_replay_across_models(self):
        """A trace captured from one model replays exactly on another."""
        from repro.workloads.gc import ConcurrentGC, GCConfig

        config = GCConfig(heap_pages=8, collections=1, mutator_refs_per_cycle=100)
        gc = ConcurrentGC(Kernel("plb"), config)
        log = gc.machine.record_trace()
        gc.run()
        trace = gc.machine.stop_recording()
        assert trace is log and len(trace) > 100
        assert gc.machine.stop_recording() is None

    def test_recorded_refs_match_touches(self, plb_kernel):
        from tests.conftest import make_attached_segment

        kernel = plb_kernel
        machine = Machine(kernel)
        domain, segment = make_attached_segment(kernel)
        log = machine.record_trace()
        vaddr = kernel.params.vaddr(segment.base_vpn, 8)
        machine.write(domain, vaddr)
        machine.read(domain, vaddr)
        machine.stop_recording()
        machine.read(domain, vaddr)  # not recorded
        assert [ref.vaddr for ref in log] == [vaddr, vaddr]
        assert [ref.access for ref in log] == [AccessType.WRITE, AccessType.READ]

    def test_recorded_trace_serializes(self, tmp_path, plb_kernel):
        import io

        from repro.sim.trace import read_trace, write_trace
        from tests.conftest import make_attached_segment

        kernel = plb_kernel
        machine = Machine(kernel)
        domain, segment = make_attached_segment(kernel)
        log = machine.record_trace()
        for offset in range(0, 256, 32):
            machine.read(domain, kernel.params.vaddr(segment.base_vpn, offset))
        machine.stop_recording()
        buffer = io.StringIO()
        write_trace(log, buffer)
        buffer.seek(0)
        assert list(read_trace(buffer)) == log


class TestRun:
    def test_run_trace_returns_delta_stats(self, kernel):
        machine = Machine(kernel)
        domain, segment = make_attached_segment(kernel)
        vaddr = kernel.params.vaddr(segment.base_vpn)
        trace = [
            Ref(domain.pd_id, vaddr, AccessType.WRITE),
            Ref(domain.pd_id, vaddr, AccessType.READ),
        ]
        stats = machine.run(trace)
        assert stats["refs"] == 2
        assert stats["dcache.hit"] == 1

    def test_run_handles_switch_ops(self, kernel):
        machine = Machine(kernel)
        a = kernel.create_domain("a")
        b = kernel.create_domain("b")
        stats = machine.run([Switch(a.pd_id), Switch(b.pd_id)])
        assert stats["domain_switch"] == 2

    def test_run_of_an_empty_trace_moves_no_counter(self, kernel):
        make_attached_segment(kernel)
        assert Machine(kernel).run([]).as_dict() == {}

    @pytest.mark.parametrize("model", MODELS)
    def test_a_pinned_machine_replays_on_its_own_cpu(self, model):
        kernel = Kernel(model, n_frames=64, n_cpus=2)
        domain, segment = make_attached_segment(kernel)
        vaddr = kernel.params.vaddr(segment.base_vpn)
        assert kernel.current_cpu == 0
        stats = Machine(kernel, cpu=kernel.cpus[1]).run(
            [Switch(domain.pd_id), Ref(domain.pd_id, vaddr, AccessType.WRITE)]
        )
        assert stats["refs"] == 1
        assert kernel.current_cpu == 1
        assert kernel.cpus[1].system.current_domain == domain.pd_id
        assert kernel.cpus[0].system.current_domain != domain.pd_id

    def test_run_rejects_foreign_ops(self, kernel):
        machine = Machine(kernel)
        with pytest.raises(TypeError):
            machine.run([42])  # type: ignore[list-item]

    def test_same_trace_all_models(self):
        """One trace drives all three systems — the fairness property."""
        results = {}
        for model in ("plb", "pagegroup", "conventional"):
            kernel = Kernel(model)
            machine = Machine(kernel)
            domain, segment = make_attached_segment(kernel)
            trace = [
                Ref(domain.pd_id, kernel.params.vaddr(segment.base_vpn, off))
                for off in range(0, 2048, 64)
            ]
            stats = machine.run(trace)
            results[model] = stats["refs"]
        assert len(set(results.values())) == 1


def _mixed_trace(kernel):
    """A trace with explicit Switch ops interleaved between refs."""
    a = kernel.create_domain("a")
    b = kernel.create_domain("b")
    segment = kernel.create_segment("shared", 4)
    kernel.attach(a, segment, Rights.RW)
    kernel.attach(b, segment, Rights.RW)
    base = kernel.params.vaddr(segment.base_vpn)
    return [
        Ref(a.pd_id, base, AccessType.WRITE),
        Switch(b.pd_id),
        Ref(b.pd_id, base + 64, AccessType.READ),
        Switch(a.pd_id),
        Ref(a.pd_id, base + 128, AccessType.READ),
    ]


class TestReplayRoundtrip:
    def test_rerecording_a_replay_keeps_switch_ops(self, kernel):
        """run() must log replayed Switch ops, not just Refs.

        Dropping them would make a re-recorded trace diverge in switch
        costs when replayed on another model.
        """
        machine = Machine(kernel)
        trace = _mixed_trace(kernel)
        log = machine.record_trace()
        machine.run(trace)
        machine.stop_recording()
        assert log == trace

    def test_roundtrip_stats_identical_across_models(self):
        """record -> replay -> re-record is a fixpoint on every model."""
        for model in ("plb", "pagegroup", "conventional"):
            kernel = Kernel(model)
            machine = Machine(kernel)
            trace = _mixed_trace(kernel)
            first = machine.run(trace).as_dict()

            replay_kernel = Kernel(model)
            replay_machine = Machine(replay_kernel)
            _mixed_trace(replay_kernel)  # same domains and segment
            log = replay_machine.record_trace()
            second = replay_machine.run(trace).as_dict()
            replay_machine.stop_recording()
            assert log == trace, model
            assert second == first, model

