"""The trace-driven simulator: trace records, the machine, statistics.

Only the leaf modules (:mod:`~repro.sim.stats`, :mod:`~repro.sim.trace`)
are imported eagerly here; :class:`~repro.sim.machine.Machine` depends on
the kernel layer and is re-exported by the top-level :mod:`repro`
package instead (importing it here would be circular — the hardware
substrate uses :class:`Stats`).
"""

from repro.sim.stats import Stats
from repro.sim.trace import Ref, Switch

__all__ = ["Ref", "Stats", "Switch"]
