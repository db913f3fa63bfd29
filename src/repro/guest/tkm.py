"""Tmem Kernel Module (TKM).

The TKM plays two roles in SmarTmem (Section III-C of the paper):

* In every guest it is the kernel module that registers the domain with
  the hypervisor's tmem backend, creates the frontswap/cleancache pools
  and issues the data-path hypercalls.  :class:`TmemKernelModule` covers
  this role; :class:`~repro.guest.kernel.GuestKernel` uses the clients it
  creates.

* In the privileged domain it additionally receives the statistics VIRQ
  from the hypervisor, relays each snapshot to the user-space Memory
  Manager over a netlink socket, and pushes the MM's target vector back
  into the hypervisor through a custom hypercall.  :class:`PrivilegedTkm`
  covers this role.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from ..channels.netlink import NetlinkChannel, NetlinkMessage
from ..errors import HypercallError
from ..hypervisor.virq import StatsSnapshot
from ..hypervisor.xen import Hypervisor
from .cleancache import CleancacheClient
from .frontswap import FrontswapClient

__all__ = ["TmemKernelModule", "PrivilegedTkm"]


class TmemKernelModule:
    """Guest-side TKM: registration and data-path client factory."""

    def __init__(
        self,
        hypervisor: Hypervisor,
        vm_id: int,
        *,
        enable_cleancache: bool = False,
    ) -> None:
        self._hypervisor = hypervisor
        self._vm_id = vm_id
        self._record = hypervisor.register_tmem_client(
            vm_id, cleancache=enable_cleancache
        )
        if self._record.frontswap_pool_id is None:  # pragma: no cover
            raise HypercallError("frontswap pool was not created")
        self.frontswap = FrontswapClient(
            vm_id, self._record.frontswap_pool_id, hypervisor.hypercalls
        )
        self.cleancache: Optional[CleancacheClient] = None
        if enable_cleancache:
            if self._record.cleancache_pool_id is None:  # pragma: no cover
                raise HypercallError("cleancache pool was not created")
            self.cleancache = CleancacheClient(
                vm_id, self._record.cleancache_pool_id, hypervisor.hypercalls
            )

    @property
    def vm_id(self) -> int:
        return self._vm_id

    @property
    def hypercall_stats(self):
        return self._hypervisor.hypercalls.stats_for(self._vm_id)

    def rehome(self, hypervisor: Hypervisor) -> None:
        """Re-register this module on another node's hypervisor.

        Called during VM migration, after the target created the domain
        record.  ``register_tmem_client`` creates fresh pools; the
        existing frontswap/cleancache clients are re-bound to them so
        their guest-side state (stored-page maps, version clocks)
        survives the move.
        """
        record = hypervisor.register_tmem_client(
            self._vm_id, cleancache=self.cleancache is not None
        )
        self._hypervisor = hypervisor
        self._record = record
        self.frontswap.rebind(record.frontswap_pool_id, hypervisor.hypercalls)
        if self.cleancache is not None:
            self.cleancache.rebind(
                record.cleancache_pool_id, hypervisor.hypercalls
            )


@dataclass
class RelayStats:
    """Counters for the privileged TKM's relay activity."""

    snapshots_relayed: int = 0
    target_updates_applied: int = 0


class PrivilegedTkm:
    """Privileged-domain TKM: statistics relay and target write-back."""

    #: netlink message kinds
    MSG_STATS = "memstats"
    MSG_TARGETS = "mm_targets"

    def __init__(
        self,
        hypervisor: Hypervisor,
        *,
        stats_channel: NetlinkChannel,
        target_channel: NetlinkChannel,
    ) -> None:
        self._hypervisor = hypervisor
        self._stats_channel = stats_channel
        self._target_channel = target_channel
        self.stats = RelayStats()

        # The privileged domain itself registers with the hypercall layer so
        # that the target write-back hypercall has a legitimate caller.
        hypervisor.hypercalls.register_domain(Hypervisor.PRIVILEGED_DOMAIN_ID)

        # Wire the VIRQ (sampler) into the netlink relay, and the reverse
        # channel into the target write-back hypercall.
        hypervisor.sampler.subscribe(self._on_virq)
        target_channel.subscribe(self._on_targets)

    # -- hypervisor -> user space ------------------------------------------------
    def _on_virq(self, snapshot: StatsSnapshot) -> None:
        """Relay a statistics snapshot to the MM over netlink."""
        self._stats_channel.send(self.MSG_STATS, snapshot)
        self.stats.snapshots_relayed += 1

    # -- user space -> hypervisor ---------------------------------------------------
    def _on_targets(self, message: NetlinkMessage) -> None:
        if message.kind != self.MSG_TARGETS:
            return
        targets: Mapping[int, int] = message.payload
        self._hypervisor.hypercalls.tmem_set_targets(
            Hypervisor.PRIVILEGED_DOMAIN_ID, targets
        )
        self.stats.target_updates_applied += 1
