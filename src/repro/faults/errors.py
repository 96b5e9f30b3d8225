"""Typed fault exceptions for the fault-injection and recovery subsystem.

The seed repository modelled a perfect machine: a missing page on the
backing store raised a bare ``KeyError`` and any corrupted protection
state was undefined behaviour.  This module gives every hardware fault a
name so recovery code can catch exactly what it can repair:

* ``DiskError`` and subclasses — backing-store I/O failures.  Transient
  errors are retryable; corrupt pages (checksum mismatch) are not, but a
  pager may substitute a zero page; a missing page is a programming
  error unless injected.
* ``MachineCheck`` — a protection structure (PLB, TLB, page-group
  holder) reported an inconsistency.  The kernel's machine-check handler
  flushes and rebuilds the affected soft state from the authoritative
  tables (Section 3's "caches are soft state" claim, made executable).

``MissingPageError`` also subclasses ``KeyError`` so that pre-existing
callers (and tests) written against the seed's bare ``KeyError``
contract keep working.
"""

from __future__ import annotations


class HardwareFault(Exception):
    """Base class for injected or detected hardware faults."""


class DiskError(HardwareFault):
    """A backing-store I/O operation failed."""


class TransientDiskError(DiskError):
    """A retryable I/O failure (controller timeout, bus glitch)."""


class CorruptPageError(DiskError):
    """Page data failed its integrity check (bit-rot, torn write)."""


class MissingPageError(DiskError, KeyError):
    """The requested page was never written to the backing store.

    Subclasses ``KeyError`` for compatibility with the seed contract
    (``BackingStore.read`` historically raised a bare ``KeyError``).
    """

    def __str__(self) -> str:  # KeyError.__str__ repr()s the message
        return Exception.__str__(self)


class AddressSpaceError(RuntimeError):
    """A mapping request conflicted with a process's address space.

    Raised by the multi-AS foil (:mod:`repro.multias.osbase`).  Typed
    here with the rest of the fault vocabulary; subclasses
    ``RuntimeError`` for compatibility with the original contract.
    """


class ClusterError(HardwareFault):
    """Base class for distributed-DSM protocol and interconnect faults."""


class ClusterConfigError(ClusterError, ValueError):
    """A cluster was constructed with an unusable topology.

    Subclasses ``ValueError`` so callers (and tests) written against
    the original ``DSMCluster`` contract keep working.
    """


class DSMProtocolError(ClusterError, KeyError):
    """A coherence request named a page outside the shared directory.

    Subclasses ``KeyError`` for compatibility with the seed contract
    (an unknown vpn historically surfaced as a bare dict ``KeyError``).
    """

    def __str__(self) -> str:  # KeyError.__str__ repr()s the message
        return Exception.__str__(self)


class ClusterTimeoutError(ClusterError):
    """A remote protocol message exhausted its retries without a reply."""


class NodeCrashedError(ClusterError):
    """The peer a message targeted has been declared dead.

    Raised mid-operation after the failure detector confirms the peer;
    by the time the caller sees it, ownership handoff has already run
    and the directory no longer references the dead node.
    """


class ClusterUnavailableError(ClusterError):
    """The cluster cannot make progress (no live nodes, split quorum)."""


class MachineCheck(HardwareFault):
    """A protection structure detected (or was injected with) corruption.

    Args:
        structure: Name of the faulted structure (``"plb"``, ``"tlb"``,
            ``"holder"``, ...).  Recovery rebuilds the whole structure.
    """

    def __init__(self, structure: str, detail: str = "") -> None:
        self.structure = structure
        self.detail = detail
        super().__init__(f"machine check in {structure}" + (f": {detail}" if detail else ""))
