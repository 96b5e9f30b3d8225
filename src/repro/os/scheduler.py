"""Protection-domain scheduling (Section 4.1.4).

Domain switches are the operation whose cost diverges most sharply
between the models: one PD-ID register write on the PLB system, a
page-group-cache purge (plus eager or lazy reload) on the page-group
system, and a full TLB/cache purge on an untagged conventional system.
:class:`RoundRobinScheduler` is deliberately simple — round-robin over
runnable domains — because the single-CPU benchmarks care about the
per-switch hardware cost, not scheduling policy.
"""

from __future__ import annotations

from repro.os.domain import ProtectionDomain
from repro.os.kernel import Kernel


class RoundRobinScheduler:
    """Cycle through a fixed set of protection domains."""

    def __init__(self, kernel: Kernel, domains: list[ProtectionDomain]) -> None:
        if not domains:
            raise ValueError("scheduler needs at least one domain")
        self.kernel = kernel
        self.domains = list(domains)
        self._index = len(domains) - 1  # first next() lands on domains[0]
        # Direct transfers (run_to) resolve the target in O(1); domains
        # hash by identity so pd_id keys keep duplicates impossible.
        self._index_of = {
            domain.pd_id: index for index, domain in enumerate(self.domains)
        }

    @property
    def current(self) -> ProtectionDomain:
        return self.domains[self._index]

    def next(self) -> ProtectionDomain:
        """Switch to the next domain in rotation and return it."""
        self._index = (self._index + 1) % len(self.domains)
        domain = self.domains[self._index]
        self.kernel.switch_to(domain)
        return domain

    def run_to(self, domain: ProtectionDomain) -> None:
        """Switch directly to a specific domain (RPC-style transfer)."""
        index = self._index_of.get(domain.pd_id)
        if index is None or self.domains[index] is not domain:
            raise ValueError(f"{domain.name} is not scheduled here") from None
        self._index = index
        self.kernel.switch_to(domain)

