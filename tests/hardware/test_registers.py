"""Unit tests for processor control registers."""

from __future__ import annotations

import pytest

from repro.hardware.registers import GLOBAL_PAGE_GROUP, PDIDRegister, PIDEntry, PIDRegisterFile
from repro.sim.stats import Stats


class TestPDIDRegister:
    def test_initial_value_zero(self):
        assert PDIDRegister().value == 0

    def test_write_counts_one_register_write(self):
        """A domain switch is a single register write (§4.1.4)."""
        stats = Stats()
        reg = PDIDRegister(stats=stats)
        reg.write(7)
        assert reg.value == 7
        assert stats["pdid.write"] == 1

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            PDIDRegister().write(-1)

    def test_multiple_writes_accumulate(self):
        stats = Stats()
        reg = PDIDRegister(stats=stats)
        for pd in (1, 2, 1, 3):
            reg.write(pd)
        assert stats["pdid.write"] == 4
        assert reg.value == 3


class TestPIDEntry:
    def test_frozen(self):
        entry = PIDEntry(group=3)
        with pytest.raises(AttributeError):
            entry.group = 4  # type: ignore[misc]

    def test_defaults(self):
        entry = PIDEntry(group=3)
        assert not entry.write_disable


class TestPIDFileWrites:
    def test_every_load_counted(self):
        stats = Stats()
        file = PIDRegisterFile(size=4, stats=stats)
        file.install(PIDEntry(group=1))
        file.install(PIDEntry(group=2))
        file.invalidate(1)
        assert stats["pid.write"] == 3  # two installs + one clear-on-invalidate

    def test_drop_is_not_counted(self):
        """``drop`` is the scrubber's repair path: it clears the
        register without charging a write."""
        stats = Stats()
        file = PIDRegisterFile(size=4, stats=stats)
        file.install(PIDEntry(group=1))
        assert file.drop(1)
        assert file.find(1) is None
        assert stats["pid.write"] == 1

    def test_contains(self):
        file = PIDRegisterFile()
        file.install(PIDEntry(group=2))
        assert 2 in file
        assert GLOBAL_PAGE_GROUP in file
        assert 9 not in file

    def test_clear_empty_is_free(self):
        stats = Stats()
        file = PIDRegisterFile(size=4, stats=stats)
        assert file.clear() == 0
        assert stats["pid.write"] == 0
