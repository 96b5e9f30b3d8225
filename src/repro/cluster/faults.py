"""Arming ``cluster``-site fault plans on the interconnect.

The :class:`ClusterInjector` is the cluster-scope sibling of
:class:`repro.faults.plan.FaultInjector`: it consumes the same
serializable :class:`~repro.faults.plan.FaultPlan` records, but its
event stream is the interconnect's *message index* rather than kernel
workload ops.  Arming installs a hook on the
:class:`~repro.cluster.interconnect.Interconnect`; each outgoing
message is offered to the schedule and may be dropped, duplicated,
delayed, stranded behind a freshly-cut link, or never delivered because
its destination just lost power.

Same contracts as the kernel injector:

* **Deterministic** — a plan replayed from its JSON dump injects the
  same faults at the same message indices.
* **Zero overhead when off** — an armed injector whose events never
  fire leaves every counter byte-identical to an unarmed run.
* **Accounted** — every injection increments ``faults.injected`` and
  ``faults.injected.cluster.<kind>`` in the cluster's Stats, pairing
  with the ``faults.recovered`` the protocol counts when it gets back
  on its feet.

Non-``cluster`` sites in the plan are ignored here (they belong to the
per-node kernel injectors), mirroring how the kernel injector treats
``cluster`` events as inert.
"""

from __future__ import annotations

from repro.cluster.messages import Message
from repro.faults.plan import FaultPlan


class ClusterInjector:
    """Replays a fault plan against a cluster's interconnect."""

    #: The sites a cluster has, so the only ones this injector strikes.
    SITES = ("cluster",)

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.cluster = None
        #: (event position in plan) already fired, for one-shot kinds.
        self._fired: set[int] = set()
        self._events = [
            (pos, event)
            for pos, event in enumerate(plan.events)
            if event.site in self.SITES
        ]

    def arm(self, cluster) -> None:
        """Install the plan's hook on ``cluster``'s interconnect."""
        self.cluster = cluster
        cluster.net.hook = self._intercept

    def disarm(self) -> None:
        if self.cluster is not None:
            self.cluster.net.hook = None
            self.cluster = None

    # -------------------------------------------------------------- #

    def _record(self, kind: str) -> None:
        stats = self.cluster.stats
        stats.inc("faults.injected")
        stats.inc(f"faults.injected.cluster.{kind}")

    def _intercept(self, message: Message, index: int) -> str | None:
        """The interconnect hook: a verdict for one outgoing message."""
        verdict: str | None = None
        for pos, event in self._events:
            if event.kind == "msg_drop":
                # A span: drop ``arg`` consecutive messages from ``at``.
                if event.at <= index < event.at + max(1, event.arg):
                    self._record(event.kind)
                    verdict = "drop"
                continue
            if event.at != index or pos in self._fired:
                continue
            self._fired.add(pos)
            if event.kind == "msg_dup":
                self._record(event.kind)
                verdict = "dup"
            elif event.kind == "msg_delay":
                self._record(event.kind)
                verdict = "delay"
            elif event.kind == "partition":
                self._record(event.kind)
                self.cluster.net.cut(message.src, message.dst)
            elif event.kind == "heal":
                # Accounted as an event, not a fault: the plan healing
                # a link is the scenario script, nothing to recover.
                self.cluster.stats.inc("faults.injected.cluster.heal")
                self.cluster.heal_all()
            elif event.kind == "node_crash":
                # Kill the destination the moment this message is on
                # the wire: the triggering message itself is stranded
                # (the hook runs before the deliverability check).
                if self.cluster.crash_node(message.dst):
                    self._record(event.kind)
        return verdict
