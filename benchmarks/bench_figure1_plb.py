"""FIG1 — Figure 1: the PLB organization and its field widths.

Regenerates the figure's numbers (52-bit VPN, 16-bit PD-ID, 3-bit
rights for 64-bit addresses and 4 Kbyte pages) from the machine
parameters, across several address geometries.  The paper row itself is
asserted in ``tests/integration/test_paper_claims.py``.
"""

from __future__ import annotations

from repro.analysis import benchout
from repro.analysis.figures import figure1_fields, render_figure1
from repro.analysis.report import format_table
from repro.core.params import MachineParams


def test_figure1_field_widths():
    """Recompute the figure's field widths across address geometries."""
    rows = []
    for va_bits, page_bits in [(64, 12), (64, 13), (52, 12), (48, 12)]:
        params = MachineParams(va_bits=va_bits, page_bits=page_bits)
        fields = figure1_fields(params)
        rows.append(
            [
                f"{va_bits}-bit VA, {1 << (page_bits - 10)}K pages",
                fields.vpn_bits,
                fields.pd_id_bits,
                fields.rights_bits,
                fields.entry_bits,
            ]
        )
    benchout.record(
        "Figure 1: PLB organization and field widths",
        render_figure1()
        + "\n\n"
        + format_table(
            ["geometry", "VPN bits", "PD-ID bits", "rights bits", "entry bits"],
            rows,
            title="Field widths vs machine geometry (paper row first)",
        ),
    )
