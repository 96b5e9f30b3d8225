"""Host speed, from a fixed calibration kernel run between units.

On a shared machine even the fastest repetition of a unit drifts by
about 10% over minutes, as the load that neighbours put on the shared
caches and memory bus comes and goes.  The ledger runs this kernel
after every unit and reports host times *normalised to the reference
host*: a CPU time ``t`` is reported as ``t * REFERENCE_S / c``, where
``c`` is the kernel's fastest run in the same process and
:data:`REFERENCE_S` its fastest run on the reference host (a 2-core
2.1 GHz x86-64 host, CPython 3.11).  Both sides are fastest
repetitions, so both estimate the same thing: how fast the host runs
right now when nothing interferes.  Raw CPU times stay in the report.

The kernel uses nothing from ``src/``, so no change to the simulator
can move it.  It is shaped like the simulator's hot path, which is what
makes it drift with it: an LRU ``OrderedDict`` of slotted objects, a
``Counter`` keyed by strings, lookups in a small table, and one
allocation per step.
"""

from __future__ import annotations

import random
import time
from collections import Counter, OrderedDict

#: The kernel's fastest run, in CPU seconds, on the reference host.
REFERENCE_S = 0.110

_STEPS = 150_000
_TABLE = 4096


class _Line:
    __slots__ = ("tag", "dirty")

    def __init__(self, tag: int) -> None:
        self.tag = tag
        self.dirty = False


class HostSpeed:
    """Calibration samples, and the factor that normalises a CPU time."""

    def __init__(self) -> None:
        rng = random.Random(1992)
        self._keys = [rng.randrange(1 << 20) for _ in range(4096)]
        self._table = {key: _Line(key) for key in range(_TABLE)}
        #: CPU seconds of every calibration run, in order.
        self.samples: list[float] = []

    def sample(self) -> None:
        """Run the kernel once and record its CPU seconds."""
        keys, table = self._keys, self._table
        lru: OrderedDict[int, _Line] = OrderedDict()
        counts: Counter[str] = Counter()
        start = time.process_time()
        for step in range(_STEPS):
            key = keys[step & 4095] ^ (step >> 12)
            line = lru.get(key)
            if line is None:
                counts["miss"] += 1
                line = lru[key] = _Line(key)
                if len(lru) > 2048:
                    lru.popitem(last=False)
            else:
                counts["hit"] += 1
                lru.move_to_end(key)
            line.dirty = not line.dirty
            table[key & (_TABLE - 1)].dirty = line.dirty
        self.samples.append(time.process_time() - start)

    def factor(self) -> float:
        """Reference CPU seconds per CPU second measured here."""
        return REFERENCE_S / min(self.samples)
