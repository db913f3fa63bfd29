#!/usr/bin/env python3
"""Write and evaluate a custom tmem management policy.

The paper positions SmarTmem as "a framework and baseline for future
development of more sophisticated tmem memory policies".  This example
shows how to use that framework: it implements a *proportional-demand*
policy (each VM's target is proportional to its recent failed-put volume,
smoothed with an exponential moving average), registers it under its own
name with the docs and bounds of its parameters, and compares it against
greedy and smart-alloc on Scenario 2.

Run with::

    python examples/custom_policy.py [--scale 0.5] [--seed 2019]
"""

from __future__ import annotations

import argparse
from typing import Dict

from repro import run_scenario, scenario_2
from repro.analysis.metrics import mean_fairness
from repro.analysis.report import render_runtime_table
from repro.core.policy import PolicyDecision, TmemPolicy, register_policy
from repro.core.stats import TargetVector
from repro.core.targets import equal_share, proportional_scale
from repro.hypervisor.virq import StatsSnapshot


@register_policy(
    "proportional-demand",
    param_docs={
        "smoothing": "weight of the newest interval in each VM's demand average",
        "floor_fraction": "share of the pool added to each VM's demand before the split",
    },
    # Checked on every construction: a spec string such as
    # "proportional-demand:smoothing=nan" fails before any run.
    bounds={"smoothing": "(0, 1]", "floor_fraction": "[0, 1)"},
)
class ProportionalDemandPolicy(TmemPolicy):
    """Targets proportional to an EMA of each VM's failed-put volume.

    Compared with smart-alloc (which nudges targets by a fixed percentage
    per interval), this policy recomputes the whole split every interval:
    VMs that swapped recently get a share proportional to how hard they
    swapped; VMs with no recent demand fall back towards a small floor so
    they can re-enter quickly.
    """

    def __init__(self, smoothing: float = 0.5, floor_fraction: float = 0.05) -> None:
        self._alpha = float(smoothing)
        self._floor = float(floor_fraction)
        self._demand_ema: Dict[int, float] = {}

    def reset(self) -> None:
        self._demand_ema.clear()

    def decide(self, memstats: StatsSnapshot) -> PolicyDecision:
        if not memstats.vms:
            return PolicyDecision.no_change()
        # Exponentially smooth each VM's failed puts of the last interval.
        for vm in memstats.vms:
            previous = self._demand_ema.get(vm.vm_id, 0.0)
            self._demand_ema[vm.vm_id] = (
                self._alpha * vm.puts_failed + (1.0 - self._alpha) * previous
            )
        # Drop VMs that disappeared.
        live = set(memstats.vm_ids())
        for vm_id in list(self._demand_ema):
            if vm_id not in live:
                del self._demand_ema[vm_id]

        total = memstats.total_tmem
        floor = int(total * self._floor)
        demand_total = sum(self._demand_ema.values())
        if demand_total <= 0:
            targets = equal_share(sorted(live), total)
        else:
            raw = TargetVector(
                {vm_id: floor + int(d) for vm_id, d in self._demand_ema.items()}
            )
            targets = proportional_scale(raw, total)
        # The Memory Manager sends a vector only when it changed, and
        # refuses one that over-commits the pool.
        return PolicyDecision.set_targets(targets)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.5)
    parser.add_argument("--seed", type=int, default=2019)
    args = parser.parse_args()

    spec = scenario_2(scale=args.scale)
    print(f"Scenario: {spec.name} — {spec.description}\n")

    policies = ["greedy", "smart-alloc:P=6", "proportional-demand"]
    results = {}
    for policy in policies:
        print(f"running under {policy} ...")
        results[policy] = run_scenario(spec, policy, seed=args.seed)

    print()
    print(render_runtime_table(results, title="Per-VM running times"))
    print("\nMean Jain fairness of tmem shares:")
    for policy, result in results.items():
        print(f"  {policy:22s} {mean_fairness(result):.3f} "
              f"(target updates: {result.target_updates})")


if __name__ == "__main__":
    main()
