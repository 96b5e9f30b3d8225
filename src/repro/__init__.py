"""Reproduction of *Architectural Support for Single Address Space
Operating Systems* (Koldinger, Chase, Eggers; ASPLOS 1992).

The package models the paper's two protection architectures for single
address space operating systems — the domain-page model implemented by
the Protection Lookaside Buffer, and the PA-RISC page-group model — plus
the conventional multi-address-space baseline, a SASOS kernel that drives
them, and the five VM-intensive application classes of the paper's
Table 1.

Quickstart::

    from repro import Kernel, Machine, Rights

    kernel = Kernel("plb")                       # or "pagegroup"/"conventional"
    machine = Machine(kernel)
    domain = kernel.create_domain("app")
    segment = kernel.create_segment("heap", n_pages=16)
    kernel.attach(domain, segment, Rights.RW)
    machine.write(domain, segment.base_vpn << 12)
    print(kernel.stats.report("plb"))

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record.
"""

from repro.core.mmu import (
    ConventionalSystem,
    FaultReason,
    PageFault,
    PageGroupSystem,
    PLBSystem,
    ProtectionFault,
    ProtectionInfo,
)
from repro.core.params import DEFAULT_PARAMS, MachineParams
from repro.core.plb import ProtectionLookasideBuffer
from repro.core.pagegroup import PageGroupCache, PIDEntry, PIDRegisterFile
from repro.core.rights import AccessType, Rights, parse_rights
from repro.os.domain import ProtectionDomain
from repro.os.kernel import Kernel, KernelError, SegmentationViolation
from repro.os.pager import UserLevelPager
from repro.os.scheduler import RoundRobinScheduler
from repro.os.segment import VirtualSegment
from repro.sim.machine import Machine, TouchResult
from repro.sim.stats import Stats

__version__ = "1.0.0"

__all__ = [
    "AccessType",
    "ConventionalSystem",
    "DEFAULT_PARAMS",
    "FaultReason",
    "Kernel",
    "KernelError",
    "Machine",
    "MachineParams",
    "PageFault",
    "PageGroupCache",
    "PageGroupSystem",
    "PIDEntry",
    "PIDRegisterFile",
    "PLBSystem",
    "ProtectionDomain",
    "ProtectionFault",
    "ProtectionInfo",
    "ProtectionLookasideBuffer",
    "RoundRobinScheduler",
    "Rights",
    "SegmentationViolation",
    "Stats",
    "TouchResult",
    "UserLevelPager",
    "VirtualSegment",
    "parse_rights",
    "__version__",
]
