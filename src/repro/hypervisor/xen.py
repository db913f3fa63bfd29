"""Hypervisor facade: wires host memory, tmem backend and the sampler.

:class:`Hypervisor` is the single object the rest of the simulator talks
to when it needs "the Xen side": it owns the physical frame pool, the
tmem key--value store, the per-VM accounting, the hypercall interface and
the statistics sampler.  Every node of a run builds one hypervisor
(:class:`~repro.cluster.node.Node`), creates VMs against it and starts
the sampler before running the engine.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from ..config import SimulationConfig
from ..devices.disk import VirtualDisk
from ..devices.dram import HostMemory
from ..errors import ConfigurationError
from ..sim.engine import SimulationEngine
from ..sim.trace import TraceRecorder
from .accounting import HypervisorAccounting
from .hypercalls import HypercallInterface
from .tmem_backend import TmemBackend
from .tmem_store import TmemStore
from .virq import StatisticsSampler

__all__ = ["DomainRecord", "Hypervisor"]


@dataclass
class DomainRecord:
    """Hypervisor-side record of one created domain (VM)."""

    vm_id: int
    name: str
    ram_pages: int
    vcpus: int
    frontswap_pool_id: Optional[int] = None
    cleancache_pool_id: Optional[int] = None


class Hypervisor:
    """Top-level simulated hypervisor for a single computing node."""

    #: Domain id of the privileged domain (dom0 in Xen).
    PRIVILEGED_DOMAIN_ID = 0

    def __init__(
        self,
        engine: SimulationEngine,
        config: SimulationConfig,
        *,
        host_memory_pages: int,
        tmem_pool_pages: int,
        trace: Optional[TraceRecorder] = None,
        domid_allocator: Optional[Callable[[], int]] = None,
        free_trace_name: str = "tmem_free",
    ) -> None:
        if tmem_pool_pages < 0:
            raise ConfigurationError(
                f"tmem_pool_pages must be >= 0, got {tmem_pool_pages}"
            )
        self.engine = engine
        self.config = config
        self.trace = trace if trace is not None else TraceRecorder()

        self.host_memory = HostMemory(host_memory_pages)
        if tmem_pool_pages:
            self.host_memory.grow_tmem_pool(tmem_pool_pages)

        self.store = TmemStore()
        self.accounting = HypervisorAccounting(self.host_memory)
        self.backend = TmemBackend(self.host_memory, self.store, self.accounting)
        self.hypercalls = HypercallInterface(config, self.backend, self.accounting)
        self.sampler = StatisticsSampler(
            engine,
            self.accounting,
            interval_s=config.sampling.interval_s,
            trace=self.trace,
            free_trace_name=free_trace_name,
        )
        self.swap_disk = VirtualDisk(config)

        self._domains: Dict[int, DomainRecord] = {}
        #: Clusters pass a shared allocator so domain ids (and therefore
        #: trace names such as ``tmem_used/vm<id>``) are unique across
        #: every node; a standalone hypervisor counts from 1 (dom0 is
        #: the privileged domain).
        self._domid_allocator = domid_allocator or itertools.count(1).__next__

    # -- domain lifecycle ------------------------------------------------------
    def create_domain(
        self,
        name: str,
        *,
        ram_pages: int,
        vcpus: int = 1,
        vm_id: Optional[int] = None,
    ) -> DomainRecord:
        """Create a VM record and reserve its static RAM.

        *vm_id* adopts an existing cluster-wide domain id (VM migration:
        the guest keeps its identity — and its trace names — across
        hosts); by default the next id from the allocator is used.
        """
        if vcpus <= 0:
            raise ConfigurationError(f"vcpus must be > 0, got {vcpus}")
        if vm_id is not None and vm_id in self._domains:
            raise ConfigurationError(
                f"domain id {vm_id} is already in use on this host"
            )
        self.host_memory.reserve_vm_memory(ram_pages)
        if vm_id is None:
            vm_id = self._domid_allocator()
        record = DomainRecord(vm_id=vm_id, name=name, ram_pages=ram_pages, vcpus=vcpus)
        self._domains[vm_id] = record
        return record

    def destroy_domain(self, vm_id: int) -> None:
        """Tear down a VM: free its tmem pages and release its RAM."""
        record = self.domain(vm_id)
        if vm_id in set(self.hypercalls.registered_domains()):
            self.backend.destroy_vm(vm_id)
            self.hypercalls.unregister_domain(vm_id)
            self.accounting.unregister_vm(vm_id)
        self.host_memory.release_vm_memory(record.ram_pages)
        del self._domains[vm_id]

    def domain(self, vm_id: int) -> DomainRecord:
        try:
            return self._domains[vm_id]
        except KeyError:
            raise ConfigurationError(f"no such domain: {vm_id}") from None

    def domains(self) -> Dict[int, DomainRecord]:
        return dict(self._domains)

    # -- tmem registration -------------------------------------------------------
    def register_tmem_client(
        self, vm_id: int, *, frontswap: bool = True, cleancache: bool = False
    ) -> DomainRecord:
        """Initialise tmem for a domain (the guest TKM's module init)."""
        record = self.domain(vm_id)
        self.accounting.register_vm(vm_id)
        self.hypercalls.register_domain(vm_id)
        if frontswap:
            pool = self.store.create_pool(vm_id, persistent=True)
            record.frontswap_pool_id = pool.pool_id
        if cleancache:
            pool = self.store.create_pool(vm_id, persistent=False)
            record.cleancache_pool_id = pool.pool_id
        return record

    # -- lifecycle ------------------------------------------------------------------
    def start(self) -> None:
        """Start periodic statistics sampling."""
        self.sampler.start()

    def stop(self) -> None:
        self.sampler.stop()

    # -- introspection ----------------------------------------------------------------
    @property
    def total_tmem_pages(self) -> int:
        return self.host_memory.tmem_total_pages

    @property
    def free_tmem_pages(self) -> int:
        return self.host_memory.tmem_free_pages

    def check_invariants(self) -> None:
        """Run every cross-layer consistency check."""
        self.host_memory.check_invariants()
        self.accounting.check_invariants()
        # The key-value store and frame pool must agree on the page count.
        if self.store.total_pages() != self.host_memory.tmem_used_pages:
            raise ConfigurationError(
                "tmem store/page-pool mismatch: "
                f"store={self.store.total_pages()} "
                f"pool={self.host_memory.tmem_used_pages}"
            )
