"""Static memory capacity allocation (Algorithm 2 of the paper).

The available tmem capacity is divided equally across every tmem-capable
VM.  Targets only change when a VM registers or disappears or the pool
resizes; while they stand still the Memory Manager sends nothing (its
``send_to_hypervisor`` skips a repeated vector), which is the
communication-avoidance behaviour described in Section III-E.1.

The policy guarantees every VM a fair share, but it will reserve capacity
for VMs that never use tmem — the drawback the paper's Usemem scenario
exposes.
"""

from __future__ import annotations

from ...hypervisor.virq import StatsSnapshot
from ..policy import PolicyDecision, TmemPolicy, register_policy
from ..targets import equal_share

__all__ = ["StaticAllocPolicy"]


@register_policy("static-alloc")
class StaticAllocPolicy(TmemPolicy):
    """Equal split of the tmem pool across all registered VMs."""

    def decide(self, memstats: StatsSnapshot) -> PolicyDecision:
        population = memstats.vm_ids()
        if not population:
            return PolicyDecision.no_change()
        return PolicyDecision.set_targets(equal_share(population, memstats.total_tmem))
