"""The oracle's physical-address check fires on every model.

A completed reference builds no result object: the walk leaves the
physical address it resolved in ``MemorySystem.paddr``, and the harness
compares it against the kernel's own translation table.  A comparison
that never fires proves nothing, so each test breaks one model's
translating TLB so that ``fill`` installs the frame after the right one,
and the fuzz scenario must report a ``paddr`` divergence.
"""

from __future__ import annotations

import pytest

from repro.check.harness import run_check
from repro.hardware.tlb import AIDTaggedTLB, ASIDTaggedTLB, TranslationTLB

#: Each model's translating TLB and the position of ``pfn`` among its
#: ``fill`` arguments.
TRANSLATING_TLB = {
    "plb": (TranslationTLB, 1),
    "pagegroup": (AIDTaggedTLB, 1),
    "conventional": (ASIDTaggedTLB, 2),
}


@pytest.mark.parametrize("model", sorted(TRANSLATING_TLB))
def test_a_wrong_frame_is_a_paddr_divergence(model, monkeypatch):
    tlb_class, pfn_at = TRANSLATING_TLB[model]
    fill = tlb_class.fill

    def fill_next_frame(self, *args, **kwargs):
        args = list(args)
        args[pfn_at] += 1
        return fill(self, *args, **kwargs)

    monkeypatch.setattr(tlb_class, "fill", fill_next_frame)
    result = run_check("fuzz", 0, (model,), minimize=False)
    assert not result.ok
    assert result.divergence.kind == "paddr"
    assert result.divergence.model == model
