"""Tests for copy-on-write segments (the paper's footnote 4)."""

from __future__ import annotations

import pytest

from repro.check.invariants import check_invariants
from repro.core.rights import AccessType, Rights
from repro.os.cow import CopyOnWriteManager
from repro.os.kernel import Kernel
from repro.sim.machine import Machine, SMPMachine

MODELS = ("plb", "pagegroup", "conventional")


def setup(model: str, pages: int = 4, fill: bytes = b"original"):
    # A 2-way cache lets both virtual names of a shared frame be
    # resident at once (they index the same set for page-aligned
    # segments), which is what makes the synonym observable.
    kernel = Kernel(
        model,
        system_options={"detect_hazards": True, "cache_ways": 2}
        if model == "plb"
        else {},
    )
    machine = Machine(kernel)
    cow = CopyOnWriteManager(kernel)
    writer = kernel.create_domain("writer")
    source = kernel.create_segment("source", pages)
    cow.attach(writer, source, Rights.RW)
    for vpn in source.vpns():
        pfn = kernel.translations.pfn_for(vpn)
        kernel.memory.write_page(pfn, fill + bytes(64))
    return kernel, machine, cow, writer, source


class TestSharing:
    @pytest.mark.parametrize("model", MODELS)
    def test_copy_shares_frames(self, model):
        kernel, machine, cow, writer, source = setup(model)
        copy = cow.create_copy(source, "copy")
        for index, src_vpn in enumerate(source.vpns()):
            copy_vpn = copy.vpn_at(index)
            assert kernel.translations.pfn_for(copy_vpn) == \
                kernel.translations.pfn_for(src_vpn)
            assert cow.is_shared(src_vpn) and cow.is_shared(copy_vpn)
        assert kernel.stats["cow.pages_shared"] == source.n_pages

    @pytest.mark.parametrize("model", MODELS)
    def test_reads_work_on_both_sides_without_copying(self, model):
        kernel, machine, cow, writer, source = setup(model)
        copy = cow.create_copy(source, "copy")
        reader = kernel.create_domain("reader")
        cow.attach(reader, copy, Rights.RW)
        machine.read(writer, kernel.params.vaddr(source.base_vpn))
        machine.read(reader, kernel.params.vaddr(copy.base_vpn))
        assert kernel.stats["cow.pages_copied"] == 0

    def test_copy_uses_fresh_addresses(self):
        kernel, machine, cow, writer, source = setup("plb")
        copy = cow.create_copy(source, "copy")
        assert copy.base_vpn != source.base_vpn
        overlap = set(source.vpns()) & set(copy.vpns())
        assert not overlap


class TestBreakOnWrite:
    @pytest.mark.parametrize("model", MODELS)
    def test_write_breaks_share_and_preserves_data(self, model):
        kernel, machine, cow, writer, source = setup(model)
        copy = cow.create_copy(source, "copy")
        reader = kernel.create_domain("reader")
        cow.attach(reader, copy, Rights.RW)
        src_vpn = source.base_vpn
        copy_vpn = copy.base_vpn
        # Writer writes the source side: it faults, copies, proceeds.
        result = machine.write(writer, kernel.params.vaddr(src_vpn))
        assert result.protection_faults >= 1
        assert kernel.stats["cow.breaks"] >= 1
        # The two sides now have distinct frames.
        assert kernel.translations.pfn_for(src_vpn) != \
            kernel.translations.pfn_for(copy_vpn)
        # The copy still sees the original bytes.
        copy_data = kernel.memory.read_page(kernel.translations.pfn_for(copy_vpn))
        assert copy_data.startswith(b"original")

    @pytest.mark.parametrize("model", MODELS)
    def test_both_sides_writable_after_break(self, model):
        kernel, machine, cow, writer, source = setup(model)
        copy = cow.create_copy(source, "copy")
        reader = kernel.create_domain("reader")
        cow.attach(reader, copy, Rights.RW)
        machine.write(writer, kernel.params.vaddr(source.base_vpn))
        machine.write(reader, kernel.params.vaddr(copy.base_vpn))
        # A second write is fault-free (rights fully restored).
        assert machine.write(
            writer, kernel.params.vaddr(source.base_vpn)
        ).protection_faults == 0

    def test_share_fully_dissolves(self):
        kernel, machine, cow, writer, source = setup("plb")
        copy = cow.create_copy(source, "copy")
        machine.write(writer, kernel.params.vaddr(source.base_vpn))
        assert not cow.is_shared(source.base_vpn)
        assert not cow.is_shared(copy.base_vpn)

    def test_copy_of_copy_chains(self):
        kernel, machine, cow, writer, source = setup("plb")
        copy1 = cow.create_copy(source, "copy1")
        copy2 = cow.create_copy(source, "copy2")
        vpn = source.base_vpn
        assert len(cow.sharers_of(vpn)) == 3
        machine.write(writer, kernel.params.vaddr(vpn))
        # The two copies still share with each other.
        assert cow.is_shared(copy1.base_vpn)
        assert cow.is_shared(copy2.base_vpn)
        assert len(cow.sharers_of(copy1.base_vpn)) == 2


class TestMultiCpu:
    @pytest.mark.parametrize("model", MODELS)
    def test_copy_demotes_the_source_on_every_cpu(self, model):
        """Sharing makes the source read-only on every CPU, not only on
        the one that creates the copy: a write from another CPU whose
        TLB already holds the page writable traps once and breaks the
        share."""
        kernel = Kernel(model, n_cpus=2)
        smp = SMPMachine(kernel)
        cow = CopyOnWriteManager(kernel)
        writer = kernel.create_domain("writer")
        source = kernel.create_segment("source", 2)
        cow.attach(writer, source, Rights.RW)
        vaddr = kernel.params.vaddr(source.base_vpn)
        smp.touch_on(1, writer, vaddr, AccessType.WRITE)
        kernel.set_current_cpu(0)
        cow.create_copy(source, "copy")
        assert check_invariants(kernel) == []
        result = smp.touch_on(1, writer, vaddr, AccessType.WRITE)
        assert result.protection_faults == 1
        assert kernel.stats["cow.breaks"] == 1
        assert not cow.is_shared(source.base_vpn)


class TestFootnote4:
    def test_readonly_synonyms_are_harmless(self):
        """The shared frame appears under two virtual tags in the VIVT
        cache — a synonym — but read-only, so no coherence bug can
        occur (footnote 4)."""
        kernel, machine, cow, writer, source = setup("plb")
        copy = cow.create_copy(source, "copy")
        reader = kernel.create_domain("reader")
        cow.attach(reader, copy, Rights.READ)
        machine.read(writer, kernel.params.vaddr(source.base_vpn))
        machine.read(reader, kernel.params.vaddr(copy.base_vpn))
        # Both copies resident: the synonym exists...
        assert kernel.stats["dcache.synonym_hazard"] >= 1
        # ...but no line of the shared frame is dirty: writes always
        # fault before reaching the cache.
        pfn = kernel.translations.pfn_for(copy.base_vpn)
        assert kernel.stats["dcache.writeback"] == 0

    def test_synonym_gone_after_write(self):
        """"As soon as a write occurs to one copy of an address, the
        page is copied, and the synonym no longer exists."""
        kernel, machine, cow, writer, source = setup("plb")
        copy = cow.create_copy(source, "copy")
        machine.write(writer, kernel.params.vaddr(source.base_vpn))
        assert kernel.translations.pfn_for(source.base_vpn) != \
            kernel.translations.pfn_for(copy.base_vpn)
        assert not cow.is_shared(source.base_vpn)


class TestDestroySegment:
    @pytest.mark.parametrize("model", MODELS)
    def test_destroy_revokes_and_frees(self, model):
        kernel = Kernel(model)
        machine = Machine(kernel)
        domain = kernel.create_domain("d")
        segment = kernel.create_segment("s", 4)
        kernel.attach(domain, segment, Rights.RW)
        machine.write(domain, kernel.params.vaddr(segment.base_vpn))
        free_before = kernel.memory.free_frames
        kernel.destroy_segment(segment)
        assert kernel.memory.free_frames == free_before + 4
        from repro.os.kernel import SegmentationViolation

        with pytest.raises(SegmentationViolation):
            machine.read(domain, kernel.params.vaddr(segment.base_vpn))

    def test_destroy_twice_rejected(self):
        from repro.os.kernel import KernelError

        kernel = Kernel("plb")
        segment = kernel.create_segment("s", 2)
        kernel.destroy_segment(segment)
        with pytest.raises(KernelError):
            kernel.destroy_segment(segment)

    def test_addresses_not_recycled(self):
        kernel = Kernel("plb")
        segment = kernel.create_segment("s", 4)
        kernel.destroy_segment(segment)
        replacement = kernel.create_segment("s2", 4)
        assert replacement.base_vpn != segment.base_vpn

    def test_dead_addresses_cannot_be_repopulated(self):
        """Resurrection guard: a destroyed segment's pages stay dead."""
        from repro.os.kernel import KernelError

        kernel = Kernel("plb")
        segment = kernel.create_segment("s", 2)
        kernel.destroy_segment(segment)
        with pytest.raises(KernelError):
            kernel.populate_page(segment.base_vpn)
