"""Protection-domain scheduling (Section 4.1.4).

Domain switches are the operation whose cost diverges most sharply
between the models: one PD-ID register write on the PLB system, a
page-group-cache purge (plus eager or lazy reload) on the page-group
system, and a full TLB/cache purge on an untagged conventional system.
:class:`RoundRobinScheduler` is deliberately simple — round-robin over
runnable domains — because the single-CPU benchmarks care about the
per-switch hardware cost, not scheduling policy.

On a multiprocessor the placement question appears: which CPU runs
which domain?  :class:`AffinityScheduler` keeps domains *sticky* to the
CPU whose protection caches they warmed — moving a domain means its
PLB entries / group holdings / ASID-tagged TLB replicas on the old CPU
are dead weight and the new CPU starts cold, so a migration is an
explicit verb with an explicit, model-specific refill cost, not an
accident of rotation order.  Only
:meth:`~repro.sim.machine.SMPMachine.run_affine` and the tests drive
it: a DSM node places each reference by page instead
(``DSMNode.cpu_for`` → ``touch_home``).
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


class AffinityScheduler:
    """Sticky domain→CPU placement with explicit, costed migration.

    Each domain is pinned to one CPU (round-robin over the CPUs at
    construction, unless ``placement`` overrides it); per-CPU rotation
    then cycles only the domains placed there.  ``migrate`` moves a
    domain to another CPU and *charges* the move: the old CPU's cached
    protection state for the domain is swept out (it could never be
    trusted again anyway) and the entry count is the modeled refill the
    new CPU will pay — exactly the per-model switch-cost asymmetry of
    §4.1.4, turned into a placement cost:

    * ``plb`` — the domain's PLB entries on the old CPU (tagged with its
      PD-ID) are purged; each one refaults on the new CPU.
    * ``pagegroup`` — the old CPU's group holder drops the domain's
      groups if it is current there; holdings reload on group miss.
    * ``conventional`` — the old CPU's ASID-tagged replicas are swept;
      the new CPU re-replicates every entry from the linear mirror.

    Counters: ``sched.migrations`` and ``sched.migration.refill_entries``
    (on the kernel stats; zero-cost when never used, so existing runs
    are untouched).
    """

    def __init__(
        self,
        kernel: Kernel,
        domains: list[ProtectionDomain],
        *,
        placement: dict[int, int] | None = None,
    ) -> None:
        if not domains:
            raise ValueError("scheduler needs at least one domain")
        self.kernel = kernel
        self.domains = list(domains)
        self._domain_of = {domain.pd_id: domain for domain in self.domains}
        n_cpus = kernel.n_cpus
        self._cpu_of: dict[int, int] = {}
        self._queues: dict[int, list[ProtectionDomain]] = {
            cpu: [] for cpu in range(n_cpus)
        }
        self._cursor: dict[int, int] = {cpu: -1 for cpu in range(n_cpus)}
        for index, domain in enumerate(self.domains):
            cpu = index % n_cpus
            if placement is not None and domain.pd_id in placement:
                cpu = placement[domain.pd_id]
            if not 0 <= cpu < n_cpus:
                raise ValueError(f"no CPU {cpu} (have {n_cpus})")
            self._cpu_of[domain.pd_id] = cpu
            self._queues[cpu].append(domain)

    def cpu_for(self, domain: ProtectionDomain) -> int:
        """The CPU a domain is currently placed on."""
        cpu = self._cpu_of.get(domain.pd_id)
        if cpu is None:
            raise ValueError(f"{domain.name} is not scheduled here")
        return cpu

    def domains_on(self, cpu_id: int) -> list[ProtectionDomain]:
        """The domains placed on one CPU, in rotation order."""
        return list(self._queues[cpu_id])

    def next_on(self, cpu_id: int) -> ProtectionDomain | None:
        """Rotate one CPU to its next placed domain and switch to it.

        Returns ``None`` when no domain is placed on the CPU (the CPU
        idles this quantum).  The kernel is left current on ``cpu_id``
        running the returned domain.
        """
        queue = self._queues[cpu_id]
        if not queue:
            return None
        self._cursor[cpu_id] = (self._cursor[cpu_id] + 1) % len(queue)
        domain = queue[self._cursor[cpu_id]]
        self.kernel.set_current_cpu(cpu_id)
        self.kernel.switch_to(domain)
        return domain

    def run_to(self, domain: ProtectionDomain) -> None:
        """Switch to a domain on its home CPU (RPC-style transfer)."""
        cpu = self.cpu_for(domain)
        self.kernel.set_current_cpu(cpu)
        self.kernel.switch_to(domain)

    def migrate(self, domain: ProtectionDomain, cpu_id: int) -> int:
        """Move a domain to another CPU, charging the modeled refill.

        Returns the number of protection entries the old CPU gave up —
        the state the new CPU must refault/reload, i.e. the migration's
        warm-up cost.  A no-op (returning 0) when the domain is already
        placed on ``cpu_id``.
        """
        kernel = self.kernel
        old_cpu = self.cpu_for(domain)
        if not 0 <= cpu_id < kernel.n_cpus:
            raise ValueError(f"no CPU {cpu_id} (have {kernel.n_cpus})")
        if cpu_id == old_cpu:
            return 0
        refill = self._evict_cached_state(domain, old_cpu)
        self._queues[old_cpu].remove(domain)
        if self._cursor[old_cpu] >= len(self._queues[old_cpu]):
            self._cursor[old_cpu] = -1
        self._cpu_of[domain.pd_id] = cpu_id
        self._queues[cpu_id].append(domain)
        kernel.stats.inc("sched.migrations")
        kernel.stats.inc("sched.migration.refill_entries", refill)
        return refill

    def _evict_cached_state(self, domain: ProtectionDomain, cpu_id: int) -> int:
        """Sweep one CPU's cached state for a domain; returns entries."""
        kernel = self.kernel
        system = kernel.cpus[cpu_id].system
        model = kernel.model
        if model == "plb":
            return system.plb.purge_domain_range(domain.pd_id, 0, 1 << 52)[1]
        if model == "pagegroup":
            if system.current_domain == domain.pd_id:
                invalidate = system.groups.invalidate
                return sum(1 for group in domain.groups if invalidate(group))
            return 0
        asid = domain.pd_id if getattr(system, "asid_tagged", True) else 0
        return system.tlb.invalidate_domain(asid)[1]
