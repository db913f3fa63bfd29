"""Hypervisor-side statistics, matching Table I of the paper.

Two levels of state are kept:

* :class:`VmTmemAccount` — the per-VM record the paper calls
  ``vm_data_hyp[id]``: current tmem usage, the target set by the Memory
  Manager (``mm_target``), and the put counters of the current sampling
  interval (``puts_total``, ``puts_succ``) plus cumulative totals.
* :class:`NodeInfo` — the node-wide record (``node_info``): total and free
  tmem pages and the number of registered VMs.

The statistics sampler (:mod:`repro.hypervisor.virq`) snapshots these
records once per sampling interval and resets the per-interval counters,
which is exactly the information flow the MM sees in the real system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional

from ..devices.dram import HostMemory
from ..errors import HypercallError, TmemError

__all__ = ["VmTmemAccount", "NodeInfo", "HypervisorAccounting"]

#: Sentinel target meaning "no target set" — the backend then behaves like
#: the default greedy Xen allocator for that VM.
UNLIMITED_TARGET: int = -1


@dataclass
class VmTmemAccount:
    """Per-VM tmem accounting (``vm_data_hyp[id]`` in the paper)."""

    vm_id: int
    #: Pages of tmem currently held by the VM.
    tmem_used: int = 0
    #: Target number of pages set by the MM; ``UNLIMITED_TARGET`` if unset.
    mm_target: int = UNLIMITED_TARGET
    #: Puts issued during the current sampling interval.
    puts_total: int = 0
    #: Puts that succeeded during the current sampling interval.
    puts_succ: int = 0
    #: Gets issued during the current sampling interval.
    gets_total: int = 0
    #: Flushes issued during the current sampling interval.
    flushes_total: int = 0
    #: Puts refused locally but absorbed by a peer node's pool during the
    #: current sampling interval (remote-tmem spill; 0 on single hosts).
    puts_remote: int = 0
    #: Lifetime counters (never reset), used for analysis only.
    cumul_puts_total: int = 0
    cumul_puts_succ: int = 0
    cumul_puts_failed: int = 0
    cumul_gets_total: int = 0
    cumul_flushes_total: int = 0
    cumul_puts_remote: int = 0
    #: Cluster-internal pseudo-domains (the remote-tmem spill client) are
    #: accounted for invariant checking but hidden from the statistics
    #: sampler, so per-node policies never see them as VMs and never
    #: install targets on them.
    internal: bool = False

    @property
    def puts_failed(self) -> int:
        """Locally refused puts during the current sampling interval.

        Remote-spilled puts count here on purpose: the *local* pool did
        refuse them, and that refusal is the pressure signal the per-node
        policies act on (a spilling VM should still grow its local
        target).  Whether the page then reached a peer instead of the
        swap disk is tracked separately in :attr:`puts_remote`.
        """
        return self.puts_total - self.puts_succ

    @property
    def has_target(self) -> bool:
        return self.mm_target != UNLIMITED_TARGET

    def reset_interval(self) -> None:
        """Reset the per-interval counters (done after every snapshot)."""
        self.puts_total = 0
        self.puts_succ = 0
        self.gets_total = 0
        self.flushes_total = 0
        self.puts_remote = 0


@dataclass
class NodeInfo:
    """Node-wide tmem information (``node_info`` in the paper)."""

    total_tmem: int
    free_tmem: int
    vm_count: int = 0


class HypervisorAccounting:
    """Owns every :class:`VmTmemAccount` and derives :class:`NodeInfo`."""

    def __init__(self, host_memory: HostMemory) -> None:
        self._host = host_memory
        self._vms: Dict[int, VmTmemAccount] = {}

    # -- VM registration ------------------------------------------------------
    def register_vm(self, vm_id: int, *, internal: bool = False) -> VmTmemAccount:
        if vm_id in self._vms:
            raise HypercallError(f"VM {vm_id} is already registered with tmem")
        account = VmTmemAccount(vm_id=vm_id, internal=internal)
        self._vms[vm_id] = account
        return account

    def unregister_vm(self, vm_id: int) -> None:
        if vm_id not in self._vms:
            raise HypercallError(f"VM {vm_id} is not registered with tmem")
        account = self._vms.pop(vm_id)
        if account.tmem_used != 0:
            raise TmemError(
                f"VM {vm_id} unregistered while still holding "
                f"{account.tmem_used} tmem pages"
            )

    def account(self, vm_id: int) -> VmTmemAccount:
        try:
            return self._vms[vm_id]
        except KeyError:
            raise HypercallError(
                f"VM {vm_id} is not registered with tmem"
            ) from None

    def maybe_account(self, vm_id: int) -> Optional[VmTmemAccount]:
        return self._vms.get(vm_id)

    def accounts(self) -> Iterator[VmTmemAccount]:
        return iter(self._vms.values())

    @property
    def vm_ids(self) -> list[int]:
        return sorted(self._vms)

    @property
    def vm_count(self) -> int:
        """Registered guest VMs (cluster-internal accounts excluded)."""
        return sum(1 for acc in self._vms.values() if not acc.internal)

    # -- node info --------------------------------------------------------------
    def node_info(self) -> NodeInfo:
        return NodeInfo(
            total_tmem=self._host.tmem_total_pages,
            free_tmem=self._host.tmem_free_pages,
            vm_count=self.vm_count,
        )

    # -- targets -----------------------------------------------------------------
    def set_target(self, vm_id: int, target_pages: int) -> None:
        """Install a new MM target for one VM."""
        if target_pages < 0 and target_pages != UNLIMITED_TARGET:
            raise TmemError(
                f"target for VM {vm_id} must be >= 0 (or UNLIMITED), got "
                f"{target_pages}"
            )
        self.account(vm_id).mm_target = target_pages

    # -- invariants ---------------------------------------------------------------
    def check_invariants(self) -> None:
        """Cross-check per-VM usage against the physical frame pool."""
        used = sum(acc.tmem_used for acc in self._vms.values())
        if used != self._host.tmem_used_pages:
            raise TmemError(
                "per-VM tmem usage does not match the physical pool: "
                f"sum(vm.tmem_used)={used} but host says "
                f"{self._host.tmem_used_pages}"
            )
        for acc in self._vms.values():
            if acc.tmem_used < 0:
                raise TmemError(f"VM {acc.vm_id} has negative tmem usage")
            if acc.puts_succ > acc.puts_total:
                raise TmemError(
                    f"VM {acc.vm_id} has more successful puts than puts"
                )
