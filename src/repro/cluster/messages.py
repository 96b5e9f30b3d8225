"""Protocol messages for the cluster DSM interconnect.

Every inter-node interaction in :mod:`repro.cluster` is an explicit
:class:`Message` crossing the :class:`~repro.cluster.interconnect.
Interconnect` — never a direct method call between node objects.  That
is what makes the interconnect a *fault surface*: a message the fault
plan drops, duplicates, delays or strands behind a partition is a real
protocol message, and every robustness mechanism (retry, failure
detection, handoff) is exercised against the same vocabulary it ships.

The vocabulary (request -> reply):

* ``fetch`` -> ``fetch_reply`` — move a valid page image to the caller.
* ``demote`` -> ``demote_ack`` — freeze an exclusive owner to a shared
  read-only copy; the ack carries the owner's current image so the
  home store can be synced (write-back on demotion).
* ``invalidate`` -> ``invalidate_ack`` — Table 1 "Invalidate" remotely.
* ``writeback`` -> ``writeback_ack`` — periodic durability flush of an
  exclusive page to the home store (lease renewal piggybacks on it).
* ``writeback_batch`` -> ``writeback_batch_ack`` — one tick's flush of
  *all* of an owner's exclusive pages in a single message: K page
  images share one header and one ack instead of K round trips.
* ``invalidate_range`` -> ``invalidate_range_ack`` — Table 1
  "Invalidate" for a page *set*: one header-cost message per holder
  node regardless of how many of its copies die.
* ``heartbeat`` -> ``heartbeat_ack`` — the failure detector's pulse.
* ``probe`` -> ``probe_ack`` — a witness liveness check during suspect
  resolution (distinguishes a dead node from a cut link).
* ``dir_sync`` -> ``dir_sync_ack`` — directory re-replication after a
  membership change or to a rejoining node.
* ``relay`` — carries another message through a third node when the
  direct link is partitioned; the inner message's reply bubbles back.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

#: Every kind a message may carry, requests and replies both.
MESSAGE_KINDS = (
    "fetch",
    "fetch_reply",
    "demote",
    "demote_ack",
    "invalidate",
    "invalidate_ack",
    "writeback",
    "writeback_ack",
    "writeback_batch",
    "writeback_batch_ack",
    "invalidate_range",
    "invalidate_range_ack",
    "heartbeat",
    "heartbeat_ack",
    "probe",
    "probe_ack",
    "dir_sync",
    "dir_sync_ack",
    "relay",
)


@dataclass(frozen=True)
class Message:
    """One protocol message on the interconnect.

    Attributes:
        kind: One of :data:`MESSAGE_KINDS`.
        src: Sending node id.
        dst: Destination node id.
        vpn: The shared page the message concerns, when any.
        ok: Reply status — False is a NAK (e.g. a fetch target without
            a valid copy).
        payload: Page image bytes, for data-bearing kinds.
        vpns: The page *set* a batched kind concerns (``invalidate_range``,
            ``writeback_batch``); one message, many pages.
        payloads: One page image per entry of ``vpns`` for
            ``writeback_batch``; positionally matched.
        inner: The carried message, for ``relay`` only.
    """

    kind: str
    src: int
    dst: int
    vpn: int | None = None
    ok: bool = True
    payload: bytes | None = field(default=None, repr=False)
    vpns: tuple[int, ...] | None = None
    payloads: tuple[bytes, ...] | None = field(default=None, repr=False)
    inner: "Message | None" = None

    def __post_init__(self) -> None:
        if self.kind not in MESSAGE_KINDS:
            raise ValueError(f"unknown message kind {self.kind!r}")
        if self.src == self.dst:
            raise ValueError(f"message to self (node {self.src})")
        if self.kind == "relay" and self.inner is None:
            raise ValueError("relay message carries no inner message")
        if self.payloads is not None and (
            self.vpns is None or len(self.payloads) != len(self.vpns)
        ):
            raise ValueError("payloads must match vpns one-to-one")

    def hop(self, via: int) -> "Message":
        """This message re-sent from a relay node (reply routes back)."""
        return replace(self, src=via)
