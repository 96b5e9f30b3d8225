"""The simulated cluster interconnect: cost accounting and fault hooks.

A synchronous request/reply network on a virtual cycle clock.  Every
:meth:`Interconnect.send` charges wire latency (more for data-bearing
messages), counts the message under ``cluster.msg.*``, offers it to the
armed fault hook, checks deliverability (crashed destination, cut
link), dispatches to the destination's handler, and charges the reply
trip.  An undeliverable message costs the *full timeout* — waiting out
a silence is what makes partitions and crashes expensive, which is
exactly the recovery cost the serve-mode SLOs measure.

The interconnect holds the simulation's ground truth about failures
(``crashed`` nodes, ``partitions``): a crashed node's handler is never
invoked, so protocol code cannot accidentally peek at a dead peer.
Protocol-level *belief* about membership lives in
:class:`~repro.cluster.dsm.ClusterDSM` and is updated only through
timeouts, probes and heartbeats crossing this wire.
"""

from __future__ import annotations

from typing import Callable

from repro.cluster.messages import Message
from repro.sim.stats import Stats

#: Hook verdicts an armed injector may return for a message.
VERDICTS = ("drop", "dup", "delay")

#: Wire time of a header-only message, cycles.
LATENCY_CYCLES = 400

#: Wire time of a message carrying one page image, cycles.
PAGE_LATENCY_CYCLES = 1600

#: The silence a sender waits out before it gives up on a reply, cycles.
TIMEOUT_CYCLES = 4000


class Interconnect:
    """A cost-accounted, fault-injectable message fabric."""

    def __init__(self, stats: Stats) -> None:
        self.stats = stats
        #: Virtual network clock, cycles.  Monotone; advanced per hop.
        self.clock = 0
        #: Global message index — the ``cluster`` fault site's stream.
        self.msg_index = 0
        #: Ground truth: nodes whose hardware is dead.
        self.crashed: set[int] = set()
        #: Ground truth: severed links, as frozenset({a, b}) pairs.
        self.partitions: set[frozenset[int]] = set()
        #: Registered per-node message handlers.
        self.handlers: dict[int, Callable[[Message], Message | None]] = {}
        #: Armed fault hook: (message, index) -> verdict or None.  The
        #: hook runs before the deliverability check, so a ``node_crash``
        #: it fires strands the very message that triggered it.
        self.hook: Callable[[Message, int], str | None] | None = None

    # -------------------------------------------------------------- #
    # Topology

    def register(self, node_id: int, handler: Callable[[Message], Message | None]) -> None:
        self.handlers[node_id] = handler

    def crash(self, node_id: int) -> None:
        self.crashed.add(node_id)

    def restore(self, node_id: int) -> None:
        self.crashed.discard(node_id)

    def cut(self, a: int, b: int) -> None:
        if a != b:
            self.partitions.add(frozenset((a, b)))

    def heal_all(self) -> None:
        self.partitions.clear()

    def link_up(self, a: int, b: int) -> bool:
        return frozenset((a, b)) not in self.partitions

    # -------------------------------------------------------------- #
    # The wire

    def _wire_cost(self, message: Message) -> int:
        if message.payloads is not None:
            # A K-page batch shares one header: base latency once, then
            # only the per-page data time for each carried image.  K=1
            # degenerates to exactly one page message's cost.
            return LATENCY_CYCLES + len(message.payloads) * (
                PAGE_LATENCY_CYCLES - LATENCY_CYCLES
            )
        if message.payload is not None:
            return PAGE_LATENCY_CYCLES
        return LATENCY_CYCLES

    def send(self, message: Message) -> Message | None:
        """One synchronous request; returns the reply or None (timeout).

        The caller observes only silence for every failure mode — a
        dropped message, a dead destination and a cut link are
        indistinguishable at the sender, which is why the protocol
        needs witnesses (``probe``) to tell them apart.
        """
        index = self.msg_index
        self.msg_index += 1
        stats = self.stats
        stats.inc("cluster.msg.sent")
        stats.inc(f"cluster.msg.{message.kind}")
        if message.vpns is not None:
            stats.inc("cluster.msg.batched_pages", len(message.vpns))
        self.clock += self._wire_cost(message)

        verdict = self.hook(message, index) if self.hook is not None else None
        if verdict == "drop":
            stats.inc("cluster.msg.dropped")
            self.clock += TIMEOUT_CYCLES
            return None
        if (
            message.src in self.crashed
            or message.dst in self.crashed
            or not self.link_up(message.src, message.dst)
            or message.dst not in self.handlers
        ):
            stats.inc("cluster.msg.undeliverable")
            self.clock += TIMEOUT_CYCLES
            return None
        if verdict == "delay":
            stats.inc("cluster.msg.delayed")
            self.clock += LATENCY_CYCLES * 2

        handler = self.handlers[message.dst]
        reply = handler(message)
        if verdict == "dup":
            # Redeliver the same message: handlers must be idempotent.
            stats.inc("cluster.msg.duplicated")
            handler(message)
        if reply is None:
            # The destination exists but refused service (e.g. a node
            # that knows it is rejoining); the sender sees a timeout.
            stats.inc("cluster.msg.unanswered")
            self.clock += TIMEOUT_CYCLES
            return None
        stats.inc("cluster.msg.sent")
        stats.inc(f"cluster.msg.{reply.kind}")
        self.clock += self._wire_cost(reply)
        return reply
