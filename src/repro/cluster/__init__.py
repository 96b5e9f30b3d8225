"""Fault-tolerant cluster DSM: one address space across failing nodes.

The in-process DSM workload (:mod:`repro.workloads.dsm`) shows the
paper's Table 1 coherence verbs; this package makes the cluster *real*
enough to break.  Nodes are full SASOS kernels talking only through
explicit serializable messages on a cost-accounted interconnect, and
every robustness mechanism — retry with backoff, lease-based ownership,
heartbeat failure detection, ownership handoff, directory
re-replication, scrubber-style reconciliation — exists because a fault
plan can drop, delay, duplicate or strand any of those messages, cut
any link, or kill any node at any protocol step.

Modules:

* :mod:`~repro.cluster.messages` — the protocol vocabulary.
* :mod:`~repro.cluster.interconnect` — the fault-injectable wire.
* :mod:`~repro.cluster.node` — one member (a full kernel).
* :mod:`~repro.cluster.dsm` — the resilient coherence protocol.
* :mod:`~repro.cluster.faults` — arming ``cluster``-site fault plans.
* :mod:`~repro.cluster.chaos` — the gold oracle and the
  kill-a-node-at-every-step sweep.
* :mod:`~repro.cluster.serve` — cluster serve mode (recovery-time and
  sustained-throughput SLOs under fault).
"""

from repro.cluster.chaos import (
    ClusterChaosResult,
    ClusterSweepResult,
    GoldCluster,
    run_cluster_case,
    run_cluster_sweep,
)
from repro.cluster.dsm import ClusterDSM, LeaseEntry, recovery_percentile
from repro.cluster.faults import ClusterInjector
from repro.cluster.interconnect import Interconnect
from repro.cluster.messages import MESSAGE_KINDS, Message
from repro.cluster.node import ClusterNode, stamp_page

__all__ = [
    "MESSAGE_KINDS",
    "Message",
    "Interconnect",
    "ClusterNode",
    "stamp_page",
    "ClusterDSM",
    "LeaseEntry",
    "recovery_percentile",
    "ClusterInjector",
    "GoldCluster",
    "ClusterChaosResult",
    "ClusterSweepResult",
    "run_cluster_case",
    "run_cluster_sweep",
]
