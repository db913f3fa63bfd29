"""Micro-benchmark M2 — compute cost of the MM policies per decision.

The Memory Manager runs once per sampling interval (one second).  Its
per-decision cost therefore bounds how many VMs a single node can manage:
this bench measures the cost of one decision for each policy as the VM
population grows, confirming it stays linear in the number of VMs and far
below the sampling interval.
"""

import pytest

from repro.core.policy import create_policy
from repro.hypervisor.virq import StatsSnapshot, VmStatsSample

POLICIES = ("greedy", "static-alloc", "reconf-static", "smart-alloc:P=2")
VM_COUNTS = (4, 64, 512)


def synthetic_view(vm_count: int, total_tmem: int = 262144) -> StatsSnapshot:
    """A statistics snapshot with a mix of swapping and idle VMs."""
    share = total_tmem // vm_count
    vms = []
    for vm_id in range(1, vm_count + 1):
        swapping = vm_id % 3 == 0
        vms.append(
            VmStatsSample(
                vm_id=vm_id,
                tmem_used=share if swapping else share // 4,
                mm_target=share,
                puts_total=200 if swapping else 0,
                puts_succ=120 if swapping else 0,
                gets_total=0,
                flushes_total=0,
                cumul_puts_failed=80 * vm_id if swapping else 0,
            )
        )
    used = sum(v.tmem_used for v in vms)
    return StatsSnapshot(
        time=1.0,
        interval_s=1.0,
        total_tmem=total_tmem,
        free_tmem=max(0, total_tmem - used),
        vm_count=vm_count,
        vms=tuple(vms),
    )


@pytest.mark.parametrize("vm_count", VM_COUNTS)
@pytest.mark.parametrize("policy_spec", POLICIES)
def test_micro_policy_decision_cost(benchmark, policy_spec, vm_count):
    policy = create_policy(policy_spec)
    view = synthetic_view(vm_count)

    def decide():
        # reset() keeps stateful policies exercising their full path (e.g.
        # static-alloc would otherwise detect "population unchanged").
        policy.reset()
        return policy.decide(view)

    decision = benchmark(decide)
    if policy_spec != "greedy":
        assert decision.changed
        assert decision.targets.total() <= view.total_tmem


def test_micro_policy_cost_stays_below_sampling_interval(benchmark):
    """Even at 512 VMs a smart-alloc decision is far below one second."""
    policy = create_policy("smart-alloc:P=2")
    view = synthetic_view(512)

    def decide():
        policy.reset()
        return policy.decide(view)

    benchmark(decide)
    stats = benchmark.stats.stats
    assert stats.mean < 0.5, "policy decision must stay well under the 1 s interval"
