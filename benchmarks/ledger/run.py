"""The layered performance ledger: four end-to-end workloads, one command.

Run from the repository root (the script finds ``src/`` itself)::

    python3 benchmarks/ledger/run.py --workload serve --seed 0 \\
        --seconds 15 --trace 0 --out BENCH_serve.json

Each workload runs in this one process: an untimed warm-up unit, then
timed units (fresh kernels every unit) that alternate between two
inputs until ``--seconds`` of host CPU are spent and each input ran at
least ``MIN_REPS`` times.  The *reference* input is the same in every
run; it alone feeds the simulated metrics, which therefore repeat
exactly on every run of the same code.  The other input comes from
``--seed``.

Host time is process CPU time.  Interference from other processes only
ever slows a unit down, so each input's host cost is its fastest
repetition (as ``timeit`` reports), and throughput is the two inputs'
work over the sum of their fastest run phases.  Set-up is measured the
same way: interpreter start-up and imports in ``IMPORT_PROBES`` fresh
interpreters run one after another, and object construction in every
timed unit, each taking its fastest.  Host times are then normalised to
the reference host by the calibration kernel of :mod:`hostspeed`; the
raw CPU times stay in the report.

With ``--trace 0`` the ledger reports the end-to-end metrics of
``BENCHMARK.json``.  With ``--trace 1`` each timed unit runs twice,
untraced and then under :class:`layers.LayerTracer`, and the ledger
reports the per-layer metrics; the spans of the first traced unit go to
a Chrome trace next to ``--out``.

Every unit is checked: models must agree where the protection model
cannot matter, every kernel must pass the structural coherence audit,
pinned digests (the reference input, seeds 0 and 1) must match, and a
repetition or traced twin must reproduce its input's first digest.  A
unit that fails a check counts all its requests as failed; an
unrecovered request counts alone.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit status
is 0 only when every check passed.  ``--pin`` recomputes the pinned
digests of ``--seed`` after an intended change of simulated behaviour.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import resource
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

import units  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from layers import LAYER_NAMES, LayerTracer, Probes  # noqa: E402
from repro.sim.stats import Stats  # noqa: E402

#: Host CPU of interpreter start-up and every import above.
IMPORT_CPU_S = time.process_time()

#: The metric catalog: names, units, directions and bounds.
CATALOG = json.loads((ROOT / "BENCHMARK.json").read_text())
DIGESTS = HERE / "digests.json"

#: Unit seed of the reference input (:func:`inputs` never derives it).
REFERENCE = 1992
#: Repetitions of each input a run makes at least (untraced).
MIN_REPS = 2
#: Fresh interpreters timed for the import part of ``setup_s``.
IMPORT_PROBES = 5

_clock = time.process_time


@dataclass(frozen=True)
class Workload:
    run: Callable[[int, int, Probes], units.UnitResult]
    #: Size of a timed unit, and of the warm-up and ``--tiny`` units:
    #: Table 1 classes, virtual ms, or smp rounds.
    size: int
    tiny: int


WORKLOADS = {
    "table1": Workload(units.run_table1, size=len(units.TABLE1_CLASSES), tiny=2),
    "serve": Workload(units.run_serve_unit, size=1000, tiny=60),
    "smp": Workload(units.run_smp, size=300, tiny=8),
    "cluster": Workload(units.run_cluster_unit, size=1000, tiny=60),
}


@dataclass
class Unit:
    """One unit's run: its result, host cost and check outcome."""

    index: int
    seed: int
    size: int
    result: units.UnitResult
    cpu_s: float
    setup_s: float
    digest: str
    pinned: bool

    @property
    def run_cpu_s(self) -> float:
        return self.cpu_s - self.setup_s

    @property
    def failed(self) -> int:
        return self.result.requests if self.result.problems else self.result.failed

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "seed": self.seed,
            "size": self.size,
            "cpu_s": self.cpu_s,
            "setup_s": self.setup_s,
            "refs": self.result.refs,
            "requests": self.result.requests,
            "failed": self.failed,
            "digest": self.digest,
            "pinned": self.pinned,
            "problems": self.result.problems,
        }


def inputs(seed: int) -> tuple[int, int, int]:
    """Unit seeds of a run at ``seed``: warm-up, reference input, own input."""
    return seed * 1000, REFERENCE, seed * 1000 + 1


def load_pins() -> dict:
    return json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


def run_unit(
    workload: Workload, index: int, useed: int, size: int, probes: Probes, pins: dict
) -> Unit:
    """One fresh-kernel unit, timed in process CPU, then checked off the clock."""
    gc.collect()
    probes.reset()
    start = _clock()
    try:
        result = workload.run(useed, size, probes)
    except Exception:  # a unit that raises is one failed request, not a crash
        result = units.UnitResult({}, requests=1, problems=[traceback.format_exc()])
    cpu = _clock() - start
    result.problems.extend(units.kernel_problems(probes.kernels))
    digest = result.digest()
    pinned = pins.get(str(size), {}).get(str(useed))
    if pinned is not None and pinned != digest:
        result.problems.append(f"digest {digest[:12]} != pinned {pinned[:12]}")
    return Unit(index, useed, size, result, cpu, probes.setup_s, digest, pinned is not None)


def import_cpu_samples() -> list[float]:
    """Start-up plus import CPU of fresh interpreters, one at a time."""
    code = f"import sys; sys.path.insert(0, {str(HERE)!r}); import run; print(run.IMPORT_CPU_S)"
    return [
        float(
            subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                check=True,
                timeout=120,
            ).stdout
        )
        for _ in range(IMPORT_PROBES)
    ]


# --------------------------------------------------------------------- #
# Statistics


def tail_rank(n: int) -> int:
    """1-based rank of the highest percentile, up to p99, with 10 of ``n`` beyond.

    Below 20 samples no rank above the median's has 10 beyond it, and the
    median's stands in.
    """
    return max(math.ceil(n / 2), min(math.ceil(0.99 * n), n - 10))


def median_and_tail(values: list[float]) -> tuple[float, float]:
    """Nearest-rank median and tail (see :func:`tail_rank`); 0 when empty."""
    if not values:
        return 0.0, 0.0
    ordered = sorted(values)
    return ordered[math.ceil(len(ordered) / 2) - 1], ordered[tail_rank(len(ordered)) - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# --------------------------------------------------------------------- #
# The two kinds of run


def end_to_end(timed: list[Unit], imports: list[float], host: HostSpeed) -> tuple[dict, dict]:
    """End-to-end metric values, and the detail behind them."""
    by_input: dict[int, list[Unit]] = {}
    for unit in timed:
        by_input.setdefault(unit.seed, []).append(unit)
    work = [reps[0].result for reps in by_input.values()]
    fastest = sum(min(u.run_cpu_s for u in reps) for reps in by_input.values())
    setup = min(imports) + min(u.setup_s for u in timed)
    factor = host.factor()
    reference = by_input[REFERENCE][0].result
    virt_p50, virt_tail = median_and_tail(reference.latencies)
    values = {
        "setup_s": setup * factor,
        "refs_per_cpu_s": sum(r.refs for r in work) / (fastest * factor),
        "req_per_cpu_s": sum(r.requests for r in work) / (fastest * factor),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sim_cycles": reference.sim_cycles,
        "virt_p50_cycles": virt_p50,
        "virt_tail_cycles": virt_tail,
    }
    detail = {
        "host_factor": factor,
        "calibration_s": host.samples,
        "run_cpu_s": {seed: [u.run_cpu_s for u in reps] for seed, reps in by_input.items()},
        "setup_cpu_s": [u.setup_s for u in timed],
        "import_cpu_s": imports,
        "virt_samples": len(reference.latencies),
        "virt_tail_beyond": len(reference.latencies) - tail_rank(len(reference.latencies)),
    }
    return values, detail


def per_layer(
    tracer: LayerTracer, traced: list[Unit], traced_cpu_s: float, untraced_cpu_s: float
) -> tuple[dict, dict]:
    """Per-layer metric values (raw CPU), and the method-level detail."""
    n = len(traced)
    layers = tracer.totals("layer")
    tags = tracer.totals("tag")
    counts = Stats()
    for unit in traced:
        counts.merge(unit.result.total())
    requests = sum(unit.result.requests for unit in traced)

    def share(seconds: float) -> float:
        return seconds / traced_cpu_s

    values: dict[str, float] = {}
    for layer in LAYER_NAMES:
        calls, spent = layers[layer]
        values[f"{layer}.calls"] = calls / n
        values[f"{layer}.self_share"] = share(spent)
    values["other.self_share"] = share(tracer.outside_s)
    for tag in ("sim.stats", "os.bus", "faults.scrub", "cluster.send"):
        values[f"{tag}.self_share"] = share(tags[tag][1])
    request_us = [seconds * 1e6 for seconds in tracer.request_s]
    request_p50, request_tail = median_and_tail(request_us)
    values.update(
        {
            "core.walks_per_touch": _ratio(tags["core.walk"][0], tags["sim.touch"][0]),
            "hardware.dcache.hit_ratio": _ratio(
                counts["dcache.hit"], counts["dcache.hit"] + counts["dcache.miss"]
            ),
            "os.bus.msgs": (counts["smp.shootdown.msgs"] + counts["smp.tlb_shootdown.msgs"]) / n,
            "os.trap_per_ref": _ratio(counts["kernel.trap"], counts["refs"]),
            "os.authority.cross_ratio": _ratio(
                counts["authority.shard.cross"], counts["authority.shard.mutations"]
            ),
            "faults.recovered_ratio": _ratio(counts["faults.recovered"], counts["faults.injected"]),
            "cluster.msgs_per_req": _ratio(counts["cluster.msg.sent"], requests),
            "req.cpu_p50_us": request_p50,
            "req.cpu_tail_us": request_tail,
            "trace.cpu_s": traced_cpu_s,
            "trace.overhead_ratio": traced_cpu_s / untraced_cpu_s,
            "trace.accounted_ratio": share(tracer.accounted_s()),
        }
    )
    detail = {
        "traced_units": n,
        "request_samples": len(request_us),
        "spans_recorded": len(tracer.records),
        "spans_dropped": tracer.dropped,
        "methods": {
            name: {"calls": calls, "self_s": spent}
            for name, (calls, spent) in tracer.totals("method").items()
        },
    }
    return values, detail


def measure(
    name: str, seed: int, seconds: float, trace: bool, *, tiny: bool = False
) -> tuple[dict, LayerTracer | None]:
    """Run one workload; returns the full report (and the tracer, if traced)."""
    workload = WORKLOADS[name]
    size = workload.tiny if tiny else workload.size
    pins = load_pins().get(name, {})
    warm, reference, own = inputs(seed)
    host = HostSpeed()
    imports = import_cpu_samples()
    tracer = LayerTracer() if trace else None
    timed: list[Unit] = []
    traced: list[Unit] = []
    first_digest: dict[int, str] = {}
    traced_cpu_s = 0.0
    spent = 0.0
    reps = 1 if trace else MIN_REPS
    with Probes() as probes:
        warm_up = run_unit(workload, 0, warm, workload.tiny, probes, pins)
        host.sample()
        rotation = itertools.cycle((reference, own))
        while len(timed) < 2 * reps or spent < seconds:
            unit = run_unit(workload, len(timed) + 1, next(rotation), size, probes, pins)
            if first_digest.setdefault(unit.seed, unit.digest) != unit.digest:
                unit.result.problems.append("digest differs from this input's first run")
            timed.append(unit)
            spent += unit.cpu_s
            if tracer is None:
                host.sample()
                continue
            tracer.record(not traced)
            start = _clock()
            with tracer:
                twin = run_unit(workload, unit.index, unit.seed, size, probes, pins)
            traced_cpu_s += _clock() - start
            spent += twin.cpu_s
            if twin.digest != unit.digest:
                twin.result.problems.append("traced digest differs from untraced")
            traced.append(twin)
    if tracer is None:
        values, detail = end_to_end(timed, imports, host)
        catalog = CATALOG["end_to_end"]
    else:
        tracer.record(False)
        values, detail = per_layer(tracer, traced, traced_cpu_s, sum(u.cpu_s for u in timed))
        catalog = CATALOG["per_layer"]
        if abs(values["trace.accounted_ratio"] - 1) > 0.05:
            traced[0].result.problems.append(
                f"layer self times sum to {values['trace.accounted_ratio']:.3f} of traced CPU"
            )
    checked = [warm_up] + timed + traced
    attempted = sum(u.result.requests for u in checked)
    failed = sum(u.failed for u in checked)
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "tiny": tiny,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "metrics": {
            metric["name"]: {
                "value": values[metric["name"]],
                "unit": metric["unit"],
                "better": metric["better"],
                **({"bound": metric["bound"]} if "bound" in metric else {}),
            }
            for metric in catalog
        },
        "detail": detail,
        "units": [u.as_dict() for u in checked],
    }
    return report, tracer


def pin(name: str, seed: int, tiny: bool) -> None:
    """Record the digests of a run's warm-up and two inputs."""
    workload = WORKLOADS[name]
    size = workload.tiny if tiny else workload.size
    pins = load_pins()
    sizes = pins.setdefault(name, {})
    warm, reference, own = inputs(seed)
    with Probes() as probes:
        for useed, unit_size in ((warm, workload.tiny), (reference, size), (own, size)):
            unit = run_unit(workload, 0, useed, unit_size, probes, {})
            if unit.result.problems:
                raise SystemExit(f"unit {useed} fails its checks: {unit.result.problems}")
            sizes.setdefault(str(unit_size), {})[str(useed)] = unit.digest
    for key, table in sizes.items():
        sizes[key] = dict(sorted(table.items(), key=lambda item: int(item[0])))
    DIGESTS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=CATALOG["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write the full report here (BENCH_<label>.json)")
    parser.add_argument("--tiny", action="store_true", help="tiny units: a smoke check")
    parser.add_argument("--pin", action="store_true", help="re-pin this seed's digests")
    args = parser.parse_args(argv)

    if args.pin:
        pin(args.workload, args.seed, args.tiny)
        print(f"pinned {args.workload} seed {args.seed} -> {DIGESTS}")
        return 0
    report, tracer = measure(
        args.workload, args.seed, args.seconds, bool(args.trace), tiny=args.tiny
    )
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
        if tracer is not None:
            trace_path = args.out.with_name(args.out.stem + ".trace.json")
            trace_path.write_text(json.dumps(tracer.chrome_trace()) + "\n")
    for unit in report["units"]:
        for problem in unit["problems"]:
            print(f"unit {unit['seed']}: {problem}", file=sys.stderr)
    for name, metric in report["metrics"].items():
        print(f"{name:<28} {metric['value']:>16.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": report["correct"],
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": {
                    name: {"value": metric["value"], "unit": metric["unit"]}
                    for name, metric in report["metrics"].items()
                },
            }
        )
    )
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
