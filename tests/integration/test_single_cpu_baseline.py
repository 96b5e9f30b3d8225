"""Single-CPU stats regression pin for the SMP refactor.

The refactor split the kernel into shared tables (the authority every
CPU refills from, held by :class:`Kernel` itself) plus per-CPU hardware
contexts behind a shootdown bus.  The acceptance bar is
that a ``--cpus 1`` (default) kernel produces *byte-identical* stats to
the pre-refactor simulator.  The golden counters in
``benchmarks/baselines/single_cpu_stats.json`` were generated by this
module's ``__main__`` hook on the pre-refactor tree; this test replays
the same mixed verb/reference scenario and compares every counter
exactly.

The same file pins two walk branches the default kernels never take
(:data:`WALK_BRANCHES`): hazard detection, where the data cache needs
the physical address on every reference, on all three models, and the
PLB model's physically indexed second-level cache behind its VIVT
first level.  Those entries were generated by the ``__main__`` hook at
commit ``a331ef8``, before the access path's two-step data cache.

Regenerating the baseline (only legitimate when the *scenario* changes,
never to paper over a counter drift):

    PYTHONPATH=src python tests/integration/test_single_cpu_baseline.py
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.core.rights import Rights
from repro.os.kernel import MODELS, Kernel
from repro.sim.machine import Machine

BASELINE = (
    pathlib.Path(__file__).resolve().parents[2]
    / "benchmarks"
    / "baselines"
    / "single_cpu_stats.json"
)


def drive(model: str, **kernel_kwargs) -> dict[str, int]:
    """A deterministic mixed workload: every Table 1 verb plus references.

    Uses only stable public kernel/machine API so the exact same function
    ran against the pre-refactor tree to produce the golden file.
    """
    kernel = Kernel(model, n_frames=128, **kernel_kwargs)
    machine = Machine(kernel)
    page = kernel.params.page_size
    doms = [kernel.create_domain(f"d{i}") for i in range(3)]
    code = kernel.create_segment("code", 8, group_rights=Rights.READ)
    heap = kernel.create_segment("heap", 8)
    for dom in doms:
        kernel.attach(dom, code, Rights.READ)
    kernel.attach(doms[0], heap, Rights.RW)
    kernel.attach(doms[1], heap, Rights.READ)

    # Warm references across domains: switches, refills, repeat hits.
    for _ in range(4):
        for i, dom in enumerate(doms):
            for p in range(8):
                machine.read(dom, (code.base_vpn + p) * page + 64 * i)
    for _ in range(4):
        for p in range(8):
            machine.write(doms[0], (heap.base_vpn + p) * page)
            machine.read(doms[1], (heap.base_vpn + p) * page + 128)

    # Rights churn: per-domain, all-domains, whole-segment.
    kernel.set_page_rights(doms[1], heap.base_vpn + 2, Rights.RW)
    machine.write(doms[1], (heap.base_vpn + 2) * page)
    kernel.set_rights_all_domains(heap.base_vpn + 3, Rights.READ)
    machine.read(doms[1], (heap.base_vpn + 3) * page)
    kernel.set_segment_rights(doms[0], heap, Rights.READ)
    machine.read(doms[0], (heap.base_vpn + 4) * page)

    # Unmap/refault and detach.
    kernel.free_page(heap.base_vpn + 7)
    machine.read(doms[0], (heap.base_vpn + 7) * page)
    kernel.detach(doms[2], code)

    # Post-churn reference tail: stale entries must be gone.
    for _ in range(2):
        for i, dom in enumerate(doms[:2]):
            for p in range(8):
                machine.read(dom, (code.base_vpn + p) * page + 64 * i)
    return dict(sorted(kernel.stats.as_dict().items()))


#: Baseline key -> ``(model, system_options)`` for each pinned walk branch.
WALK_BRANCHES: dict[str, tuple[str, dict]] = {
    **{
        f"{model}+detect_hazards": (model, {"detect_hazards": True})
        for model in MODELS
    },
    "plb+l2": ("plb", {"l2_cache_bytes": 8192}),
}


def _golden() -> dict[str, dict[str, int]]:
    return json.loads(BASELINE.read_text())


@pytest.mark.parametrize("model", MODELS)
def test_default_kernel_matches_pre_refactor_golden(model):
    assert drive(model) == _golden()[model]


@pytest.mark.parametrize("model", MODELS)
def test_explicit_single_cpu_matches_pre_refactor_golden(model):
    """``n_cpus=1`` must be byte-identical to the pre-refactor simulator."""
    assert drive(model, n_cpus=1) == _golden()[model]


@pytest.mark.parametrize("model", MODELS)
def test_drive_is_deterministic(model):
    """The scenario itself is deterministic: two runs agree exactly."""
    assert drive(model) == drive(model)


@pytest.mark.parametrize("model", MODELS)
def test_single_shard_matches_pre_refactor_golden(model):
    """``n_shards=1`` (the default) charges nothing: byte-identical."""
    assert drive(model, n_shards=1) == _golden()[model]


@pytest.mark.parametrize("model", MODELS)
def test_sharded_authority_only_adds_shard_counters(model):
    """Sharding changes accounting, never behavior: strip the
    ``authority.shard.*`` counters and the run is byte-identical."""
    sharded = drive(model, n_shards=4)
    extras = {k for k in sharded if k.startswith("authority.shard.")}
    assert extras, "a 4-shard run must charge shard counters"
    stripped = {k: v for k, v in sharded.items() if k not in extras}
    assert stripped == _golden()[model]


@pytest.mark.parametrize("branch", sorted(WALK_BRANCHES))
def test_walk_branch_matches_golden(branch):
    """Hazard checks and the L2 walk charge exactly the pinned counters."""
    model, options = WALK_BRANCHES[branch]
    assert drive(model, system_options=options) == _golden()[branch]


if __name__ == "__main__":
    BASELINE.parent.mkdir(parents=True, exist_ok=True)
    golden = {model: drive(model) for model in MODELS}
    for branch, (model, options) in WALK_BRANCHES.items():
        golden[branch] = drive(model, system_options=options)
    BASELINE.write_text(json.dumps(golden, indent=2) + "\n")
    print(f"wrote {BASELINE}")
