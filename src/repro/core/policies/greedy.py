"""The default greedy allocation (no management at all).

This is the baseline the paper argues against: the stock Xen tmem backend
admits every put while free pages remain, so whichever VM generates memory
pressure first can monopolise the pool.  As a policy object it simply
never installs any targets; the hypervisor's admission check then reduces
to "is there a free page?".
"""

from __future__ import annotations

from ...hypervisor.virq import StatsSnapshot
from ..policy import PolicyDecision, TmemPolicy, register_policy

__all__ = ["GreedyPolicy"]


@register_policy("greedy")
class GreedyPolicy(TmemPolicy):
    """First-come-first-served tmem allocation (the Xen default)."""

    manages_targets = False

    def decide(self, memstats: StatsSnapshot) -> PolicyDecision:
        del memstats  # the greedy baseline ignores the statistics entirely
        return PolicyDecision.no_change()
