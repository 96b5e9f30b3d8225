"""Tests for the Figure 1 / Figure 2 reproductions."""

from __future__ import annotations

from repro.analysis.figures import (
    figure1_fields,
    figure2_check_matrix,
    render_figure1,
    render_figure2,
)
from repro.core.params import MachineParams


class TestFigure1:
    def test_widths_track_parameters(self):
        fields = figure1_fields(MachineParams(va_bits=48, page_bits=13))
        assert fields.vpn_bits == 35

    def test_render_mentions_widths(self):
        text = render_figure1()
        assert "52 bits" in text
        assert "16 bits" in text
        assert "3 bits" in text
        assert "PLB" in text


class TestFigure2:
    def test_covers_both_outcomes(self):
        results = figure2_check_matrix()
        assert any(entry["allowed"] for entry in results)
        assert any(not entry["allowed"] for entry in results)
        assert any(not entry["group_hit"] for entry in results)

    def test_render_is_a_table(self):
        text = render_figure2()
        assert "scenario" in text
        assert "MISMATCH" not in text
