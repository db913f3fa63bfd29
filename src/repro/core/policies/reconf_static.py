"""Reconfigurable static allocation (Algorithm 3 of the paper).

Like static-alloc, the pool is split into equal shares, but only among the
VMs that have actually shown tmem activity: a VM becomes "active" once it
has experienced at least one failed put (i.e. it has swapped), as observed
through the cumulative failed-put counter.  Initially no VM has a share,
so a VM must swap for roughly one sampling interval before its share
arrives — the latency drawback discussed in Section III-E.2.  Once a VM is
active it keeps its share for the rest of its lifetime.
"""

from __future__ import annotations

from typing import Set

from ...hypervisor.virq import StatsSnapshot
from ..policy import PolicyDecision, TmemPolicy, register_policy
from ..stats import TargetVector
from ..targets import equal_share

__all__ = ["ReconfStaticPolicy"]


@register_policy("reconf-static")
class ReconfStaticPolicy(TmemPolicy):
    """Equal split of the pool among VMs that have used tmem at least once."""

    def __init__(self) -> None:
        self._active_vms: Set[int] = set()

    def reset(self) -> None:
        self._active_vms.clear()

    def decide(self, memstats: StatsSnapshot) -> PolicyDecision:
        population = set(memstats.vm_ids())
        # Drop VMs that have disappeared, then add newly active ones.  A VM
        # counts as active once its cumulative failed-put count is non-zero
        # (it attempted to use tmem under pressure), per Algorithm 3.
        self._active_vms &= population
        for vm in memstats.vms:
            if vm.cumul_puts_failed > 0 or vm.puts_total > 0:
                self._active_vms.add(vm.vm_id)

        shares = equal_share(sorted(self._active_vms), memstats.total_tmem)
        # Inactive VMs are explicitly pinned to a zero target, so while
        # nobody has used tmem yet every target stays at zero.
        targets = TargetVector(
            {vm_id: (shares.get(vm_id) if vm_id in self._active_vms else 0)
             for vm_id in sorted(population)}
        )
        return PolicyDecision.set_targets(targets)
