"""Tests for the §4.2 critical-path model."""

from __future__ import annotations

import pytest

from repro.core.costs import critical_path
from repro.core.params import DEFAULT_PARAMS, MachineParams


class TestCriticalPath:
    def test_plb_tag_is_vpn_plus_pdid(self):
        path = critical_path("plb")
        assert path.tag_compare_bits == DEFAULT_PARAMS.vpn_bits + DEFAULT_PARAMS.pd_id_bits

    def test_pagegroup_tag_is_vpn_plus_aid(self):
        path = critical_path("pagegroup")
        assert path.tag_compare_bits == DEFAULT_PARAMS.vpn_bits + DEFAULT_PARAMS.aid_bits

    def test_conventional(self):
        path = critical_path("conventional")
        assert path.sequential_stages == 1

    def test_widths_track_parameters(self):
        params = MachineParams(va_bits=48, pd_id_bits=12)
        path = critical_path("plb", params)
        assert path.tag_compare_bits == (48 - 12) + 12

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            critical_path("bogus")
