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

:meth:`HypercallInterface.tmem_batch` is the batched counterpart used by
the guest's vectorized access path: one boundary crossing covers a whole
sequence of put/get/flush operations, with the same per-operation latency
model and one statistics update for the batch.
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
from .tmem_backend import (
    BatchOp,
    PlannedBurst,
    TmemBackend,
    TmemBatchResult,
    TmemOpResult,
)

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

    def tmem_batch(
        self,
        vm_id: int,
        pool_id: int,
        ops: Sequence[BatchOp],
        *,
        now: float,
    ) -> tuple[TmemBatchResult, float]:
        """Issue one batched hypercall covering a sequence of tmem ops.

        *ops* is a list of ``(opcode, object_id, index, version)`` tuples
        (see :data:`~repro.hypervisor.tmem_backend.BATCH_PUT` and
        friends).  The backend services the sequence in order under the
        scalar admission rules; the latency model charges exactly what
        the equivalent scalar hypercalls would have cost — one per-VM
        statistics update then covers N pages.  Returns ``(result,
        total latency charged to the guest)``.
        """
        self._require_registered(vm_id)
        result = self._backend.execute_batch(vm_id, pool_id, ops, now=now)
        stats = self.stats_for(vm_id)
        latency = self._charge_puts_gets(
            stats,
            result.puts_total,
            result.puts_failed,
            result.remote_put_extra_s,
            result.gets_total,
            result.gets_failed,
            result.remote_get_extra_s,
        )
        flush_latency = result.flushes_total * self._config.tmem_flush_latency_s
        stats.charge_many("flush_page", result.flushes_total, flush_latency)
        return result, latency + flush_latency

    def _charge_puts_gets(
        self,
        stats: HypercallStats,
        puts_total: int,
        puts_failed: int,
        remote_put_extra_s: float,
        gets_total: int,
        gets_failed: int,
        remote_get_extra_s: float,
    ) -> float:
        """Charge one burst's puts and gets; returns their latency.

        Exactly what the equivalent scalar hypercalls would have cost:
        every put or get that succeeded, locally or on a peer node,
        pays the base latency, remote ones also their network cost
        (queue-aware on a contended interconnect), and a failing put or
        get pays a bare hypercall.
        """
        config = self._config
        put_latency = (
            (puts_total - puts_failed) * config.tmem_put_latency_s
            + remote_put_extra_s
            + puts_failed * config.tmem_failed_put_latency_s
        )
        stats.charge_many("put", puts_total, put_latency)
        get_latency = (
            (gets_total - gets_failed) * config.tmem_get_latency_s
            + remote_get_extra_s
            + gets_failed * config.tmem_failed_put_latency_s
        )
        stats.charge_many("get", gets_total, get_latency)
        return put_latency + get_latency

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
        the plan shape and preconditions.  Charges exactly what
        :meth:`tmem_batch` would for the equivalent op sequence, through
        the same formula: the per-kind remote extras are left folds of
        the returned costs in op order, as the op walk accumulates them
        (``0.0`` with no remote op, which adds exactly).  Returns
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
        # functools.reduce is a plain left fold; sum() would compensate.
        self._charge_puts_gets(
            self.stats_for(vm_id),
            len(put_pages),
            0 if put_flags is None else put_flags.count(0),
            reduce(add, put_costs, 0.0) if put_costs else 0.0,
            len(get_pages),
            0 if get_flags is None else get_flags.count(0),
            reduce(add, get_costs, 0.0) if get_costs else 0.0,
        )
        return planned

    # -- SmarTmem control-path hypercalls ------------------------------------------
    def tmem_set_targets(
        self, caller_vm_id: int, targets: Mapping[int, int]
    ) -> float:
        """Install the MM's target vector (privileged-domain only).

        In the real system this is the custom hypercall issued by the TKM
        on behalf of the Memory Manager.  Returns the latency charged.
        """
        self._require_registered(caller_vm_id)
        for vm_id, target in targets.items():
            self._accounting.set_target(vm_id, int(target))
        latency = self._config.sampling.writeback_latency_s
        self.stats_for(caller_vm_id).charge("set_targets", latency)
        return latency

    def tmem_clear_targets(self, caller_vm_id: int) -> float:
        """Remove every target, reverting to the greedy default."""
        self._require_registered(caller_vm_id)
        self._accounting.clear_targets()
        latency = self._config.sampling.writeback_latency_s
        self.stats_for(caller_vm_id).charge("set_targets", latency)
        return latency

    def registered_domains(self) -> Sequence[int]:
        return tuple(sorted(self._registered))
