"""The hypercall surface exposed to guest kernels.

The paper's guests interact with tmem exclusively through hypercalls
issued by their Tmem Kernel Module: the baseline tmem operations
(put/get/flush), plus custom hypercalls added by SmarTmem for reading the
statistics buffer and writing back the Memory Manager's target vector.

:class:`HypercallInterface` models that boundary.  Each call charges the
calling VM the appropriate latency (returned to the caller so the guest
can advance its virtual time) and dispatches into the tmem backend.
Keeping this layer explicit makes the cost accounting auditable and gives
tests a single choke point for fault injection.

:meth:`HypercallInterface.tmem_planned` is the burst counterpart used by
the guest's batched access engine: one boundary crossing covers a whole
burst of frontswap puts and gets, with the same per-operation latency
model and one statistics update for the burst.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import add
from typing import Dict, Mapping, Sequence

from ..config import SimulationConfig
from ..errors import HypercallError
from .accounting import HypervisorAccounting
from .pages import PageKey
from .tmem_backend import PlannedBurst, TmemBackend, TmemOpResult

__all__ = ["HypercallStats", "HypercallInterface"]


@dataclass
class HypercallStats:
    """Counts and cumulative latency of hypercalls, per VM."""

    calls: Dict[str, int] = field(default_factory=dict)
    latency_s: Dict[str, float] = field(default_factory=dict)

    def charge(self, name: str, latency: float) -> None:
        self.calls[name] = self.calls.get(name, 0) + 1
        self.latency_s[name] = self.latency_s.get(name, 0.0) + latency

    def charge_many(self, name: str, count: int, total_latency: float) -> None:
        """Charge *count* calls of *name* with one accounting update."""
        if count <= 0:
            return
        self.calls[name] = self.calls.get(name, 0) + count
        self.latency_s[name] = self.latency_s.get(name, 0.0) + total_latency

    @property
    def total_calls(self) -> int:
        return sum(self.calls.values())

    @property
    def total_latency_s(self) -> float:
        return sum(self.latency_s.values())


class HypercallInterface:
    """Dispatches guest hypercalls into the simulated hypervisor."""

    def __init__(
        self,
        config: SimulationConfig,
        backend: TmemBackend,
        accounting: HypervisorAccounting,
    ) -> None:
        self._config = config
        self._backend = backend
        self._accounting = accounting
        self._per_vm_stats: Dict[int, HypercallStats] = {}
        self._registered: set[int] = set()

    # -- registration --------------------------------------------------------
    def register_domain(self, vm_id: int) -> None:
        """Called when a guest's tmem kernel module initialises."""
        if vm_id in self._registered:
            raise HypercallError(f"domain {vm_id} already registered")
        self._registered.add(vm_id)
        self._per_vm_stats[vm_id] = HypercallStats()

    def unregister_domain(self, vm_id: int) -> None:
        self._require_registered(vm_id)
        self._registered.discard(vm_id)

    def _require_registered(self, vm_id: int) -> None:
        if vm_id not in self._registered:
            raise HypercallError(
                f"domain {vm_id} issued a hypercall before registering"
            )

    def stats_for(self, vm_id: int) -> HypercallStats:
        return self._per_vm_stats.setdefault(vm_id, HypercallStats())

    # -- tmem data-path hypercalls ---------------------------------------------
    def tmem_put(
        self, vm_id: int, pool_id: int, key: PageKey, *, version: int, now: float
    ) -> tuple[TmemOpResult, float]:
        """Issue a put; returns (result, latency charged to the guest)."""
        self._require_registered(vm_id)
        result = self._backend.put(vm_id, pool_id, key, version=version, now=now)
        if result.remote:
            # Spilled to a peer node: the page pays the interconnect's
            # round trip + transfer on top of the ordinary put cost.
            latency = (
                self._config.tmem_put_latency_s
                + self._backend.remote_extra_latency_s
            )
        elif result.succeeded:
            latency = self._config.tmem_put_latency_s
        else:
            latency = self._config.tmem_failed_put_latency_s
        self.stats_for(vm_id).charge("put", latency)
        return result, latency

    def tmem_get(
        self, vm_id: int, pool_id: int, key: PageKey
    ) -> tuple[TmemOpResult, float]:
        """Issue a get; returns (result, latency charged to the guest)."""
        self._require_registered(vm_id)
        result = self._backend.get(vm_id, pool_id, key)
        if result.remote:
            latency = (
                self._config.tmem_get_latency_s
                + self._backend.remote_extra_latency_s
            )
        elif result.succeeded:
            latency = self._config.tmem_get_latency_s
        else:
            latency = self._config.tmem_failed_put_latency_s
        self.stats_for(vm_id).charge("get", latency)
        return result, latency

    def tmem_flush_page(
        self, vm_id: int, pool_id: int, key: PageKey
    ) -> tuple[TmemOpResult, float]:
        self._require_registered(vm_id)
        result = self._backend.flush_page(vm_id, pool_id, key)
        latency = self._config.tmem_flush_latency_s
        self.stats_for(vm_id).charge("flush_page", latency)
        return result, latency

    def tmem_flush_object(
        self, vm_id: int, pool_id: int, object_id: int
    ) -> tuple[TmemOpResult, float]:
        self._require_registered(vm_id)
        result = self._backend.flush_object(vm_id, pool_id, object_id)
        latency = self._config.tmem_flush_latency_s
        self.stats_for(vm_id).charge("flush_object", latency)
        return result, latency

    def tmem_planned(
        self,
        vm_id: int,
        pool_id: int,
        put_pages: Sequence[int],
        first_version: int,
        get_pages: Sequence[int],
        gets_before_puts,
        pages_per_object: int,
        *,
        now: float,
    ) -> PlannedBurst:
        """Issue one planned burst through the closed-form backend path.

        Thin accounting wrapper over :meth:`~repro.hypervisor.
        tmem_backend.TmemBackend.execute_planned`; see its docstring for
        the plan shape and preconditions.  Charges exactly what the
        equivalent scalar hypercalls would have cost: every put or get
        that succeeded, locally or on a peer node, pays the base
        latency, remote ones also their network cost (queue-aware on a
        contended interconnect), and a failing put or get pays a bare
        hypercall.  The per-kind network costs are left folds in op
        order (``0.0`` with no remote op, which adds exactly).  Returns
        ``(put_flags, get_versions, get_flags, put_costs, get_costs)``
        with put and get flags 1 (local), 2 (remote) or 0 (failed).
        """
        self._require_registered(vm_id)
        planned = self._backend.execute_planned(
            vm_id,
            pool_id,
            put_pages,
            first_version,
            get_pages,
            gets_before_puts,
            pages_per_object,
            now=now,
        )
        put_flags, _versions, get_flags, put_costs, get_costs = planned
        config = self._config
        fail_latency = config.tmem_failed_put_latency_s
        stats = self.stats_for(vm_id)
        n_puts = len(put_pages)
        puts_failed = 0 if put_flags is None else put_flags.count(0)
        # functools.reduce is a plain left fold; sum() would compensate.
        stats.charge_many(
            "put",
            n_puts,
            (n_puts - puts_failed) * config.tmem_put_latency_s
            + (reduce(add, put_costs, 0.0) if put_costs else 0.0)
            + puts_failed * fail_latency,
        )
        n_gets = len(get_pages)
        gets_failed = 0 if get_flags is None else get_flags.count(0)
        stats.charge_many(
            "get",
            n_gets,
            (n_gets - gets_failed) * config.tmem_get_latency_s
            + (reduce(add, get_costs, 0.0) if get_costs else 0.0)
            + gets_failed * fail_latency,
        )
        return planned

    # -- SmarTmem control-path hypercalls ------------------------------------------
    def tmem_set_targets(
        self, caller_vm_id: int, targets: Mapping[int, int]
    ) -> float:
        """Install the MM's target vector (privileged-domain only).

        In the real system this is the custom hypercall issued by the TKM
        on behalf of the Memory Manager.  Returns the latency charged.

        The vector was computed from a snapshot taken one netlink round
        trip earlier, so it may name a VM that has since left this node
        (a planned migration unregisters it here); that target is
        dropped and the rest apply.
        """
        self._require_registered(caller_vm_id)
        accounting = self._accounting
        for vm_id, target in targets.items():
            if accounting.maybe_account(vm_id) is not None:
                accounting.set_target(vm_id, int(target))
        latency = self._config.sampling.writeback_latency_s
        self.stats_for(caller_vm_id).charge("set_targets", latency)
        return latency

    def registered_domains(self) -> Sequence[int]:
        return tuple(sorted(self._registered))
