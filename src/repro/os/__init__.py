"""The single address space operating system (Opal-like).

One global translation table, protection domains with per-domain rights
over globally addressed virtual segments, a user-level pager, domain
switching (``Kernel.switch_to``) and copy-on-write — the OS half of the
paper's hardware/software co-design.
"""

from repro.os.cow import CopyOnWriteManager
from repro.os.domain import ProtectionDomain
from repro.os.kernel import Kernel, KernelError, MODELS, SegmentationViolation
from repro.os.segment import VirtualSegment
from repro.os.segserver import AppendOnlyLogServer, SegmentServerRegistry

__all__ = [
    "AppendOnlyLogServer",
    "CopyOnWriteManager",
    "Kernel",
    "SegmentServerRegistry",
    "KernelError",
    "MODELS",
    "ProtectionDomain",
    "SegmentationViolation",
    "VirtualSegment",
]
