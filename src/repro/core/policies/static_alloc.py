"""Static memory capacity allocation (Algorithm 2 of the paper).

The available tmem capacity is divided equally across every tmem-capable
VM.  Targets only change when a VM registers or disappears; while the VM
population is stable the policy stays silent (``send_to_hypervisor`` is
skipped), which is the communication-avoidance behaviour described in
Section III-E.1.

The policy guarantees every VM a fair share, but it will reserve capacity
for VMs that never use tmem — the drawback the paper's Usemem scenario
exposes.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ...hypervisor.virq import StatsSnapshot
from ..policy import PolicyDecision, TmemPolicy, register_policy
from ..stats import TargetVector
from ..targets import equal_share

__all__ = ["StaticAllocPolicy"]


@register_policy("static-alloc")
class StaticAllocPolicy(TmemPolicy):
    """Equal split of the tmem pool across all registered VMs."""

    def __init__(self) -> None:
        self._last_population: Optional[Tuple[int, ...]] = None
        self._last_total: Optional[int] = None

    def reset(self) -> None:
        self._last_population = None
        self._last_total = None

    def decide(self, memstats: StatsSnapshot) -> PolicyDecision:
        population = tuple(sorted(memstats.vm_ids()))
        if not population:
            return PolicyDecision.no_change()
        # Only recompute when a VM appeared/vanished or the pool resized.
        if population == self._last_population and memstats.total_tmem == self._last_total:
            return PolicyDecision.no_change()
        self._last_population = population
        self._last_total = memstats.total_tmem

        targets: TargetVector = equal_share(population, memstats.total_tmem)
        self.validate_targets(targets, memstats)
        return PolicyDecision.set_targets(targets)
