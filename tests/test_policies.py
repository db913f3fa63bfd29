"""Tests for the tmem management policies (Algorithms 2-4) and targets.

A policy may hand back the same vector every interval; the Memory
Manager is the one gate that keeps a repeated vector from the
hypervisor, so the tests of a policy's silence run through it.
"""

import pytest
from hypothesis import given, strategies as st

from repro.core.manager import MemoryManager
from repro.core.policies import (
    GreedyPolicy,
    ReconfStaticPolicy,
    SmartAllocPolicy,
    StaticAllocPolicy,
)
from repro.core.policy import available_policies, create_policy
from repro.core.stats import TargetVector
from repro.core.targets import cap_targets, equal_share, proportional_scale
from repro.errors import PolicyError, UnknownPolicyError
from repro.hypervisor.virq import StatsSnapshot, VmStatsSample
from repro.params import parse_spec


def make_view(vm_stats, total_tmem=1000, free_tmem=None, time=1.0):
    """Build a StatsSnapshot from (vm_id, used, target, puts_total, puts_succ)."""
    vms = tuple(
        VmStatsSample(
            vm_id=v[0],
            tmem_used=v[1],
            mm_target=v[2],
            puts_total=v[3],
            puts_succ=v[4],
            gets_total=0,
            flushes_total=0,
            cumul_puts_failed=v[5] if len(v) > 5 else (v[3] - v[4]),
        )
        for v in vm_stats
    )
    used = sum(v.tmem_used for v in vms)
    return StatsSnapshot(
        time=time,
        interval_s=1.0,
        total_tmem=total_tmem,
        free_tmem=free_tmem if free_tmem is not None else total_tmem - used,
        vm_count=len(vms),
        vms=vms,
    )


# ---------------------------------------------------------------------------
# Target helpers (Equations 1-2)
# ---------------------------------------------------------------------------
class TestTargetVector:
    def test_set_get(self):
        vec = TargetVector({1: 10})
        vec.set(2, 20)
        assert vec.get(1) == 10 and vec.get(2) == 20
        assert vec.total() == 30

    def test_negative_target_rejected(self):
        with pytest.raises(PolicyError):
            TargetVector({1: -5})

    def test_missing_vm_rejected(self):
        with pytest.raises(PolicyError):
            TargetVector().get(3)

    def test_equality_and_copy(self):
        a = TargetVector({1: 5, 2: 7})
        b = a.copy()
        assert a == b
        b.set(1, 6)
        assert a != b


class TestEqualShare:
    def test_divides_evenly(self):
        vec = equal_share([1, 2, 3, 4], 100)
        assert vec.total() == 100
        assert all(t == 25 for _, t in vec.items())

    def test_remainder_distributed(self):
        vec = equal_share([1, 2, 3], 100)
        assert vec.total() == 100
        assert sorted(t for _, t in vec.items()) == [33, 33, 34]

    def test_empty_vm_list(self):
        assert len(equal_share([], 100)) == 0

    def test_negative_total_rejected(self):
        with pytest.raises(PolicyError):
            equal_share([1], -1)

    @given(
        vm_ids=st.lists(st.integers(1, 50), min_size=1, max_size=10, unique=True),
        total=st.integers(0, 10_000),
    )
    def test_shares_sum_to_total_and_differ_by_at_most_one(self, vm_ids, total):
        vec = equal_share(vm_ids, total)
        values = [t for _, t in vec.items()]
        assert sum(values) == total
        assert max(values) - min(values) <= 1


class TestProportionalScale:
    def test_preserves_ratios(self):
        vec = proportional_scale(TargetVector({1: 100, 2: 300}), 200)
        assert vec.get(1) == 50 and vec.get(2) == 150

    def test_sum_is_exact_even_with_rounding(self):
        vec = proportional_scale(TargetVector({1: 1, 2: 1, 3: 1}), 100)
        assert vec.total() == 100

    def test_all_zero_falls_back_to_equal_split(self):
        vec = proportional_scale(TargetVector({1: 0, 2: 0}), 10)
        assert vec.total() == 10

    @given(
        raw=st.dictionaries(st.integers(1, 8), st.integers(0, 5000),
                            min_size=1, max_size=8),
        total=st.integers(0, 5000),
    )
    def test_scaled_sum_always_equals_total(self, raw, total):
        vec = proportional_scale(TargetVector(raw), total)
        assert vec.total() == total


class TestCap:
    def test_cap_leaves_undercommitted_targets_alone(self):
        raw = TargetVector({1: 10, 2: 20})
        assert cap_targets(raw, 100) == raw

    def test_cap_scales_down_overcommitted_targets(self):
        capped = cap_targets(TargetVector({1: 150, 2: 150}), 100)
        assert capped.total() == 100
        assert capped.get(1) == capped.get(2) == 50

    @given(
        raw=st.dictionaries(st.integers(1, 6), st.integers(0, 2000),
                            min_size=1, max_size=6),
        total=st.integers(0, 4000),
    )
    def test_cap_never_exceeds_pool_and_never_raises_targets(self, raw, total):
        """Property of Equation 2: scaled targets fit and never grow."""
        vec = TargetVector(raw)
        capped = cap_targets(vec, total)
        assert capped.total() <= max(total, vec.total())
        if vec.total() > total:
            assert capped.total() == total
        for vm_id, value in capped.items():
            assert value <= vec.get(vm_id) or vec.total() <= total


# ---------------------------------------------------------------------------
# Policy registry
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_paper_policies_registered(self):
        names = available_policies()
        for expected in ("greedy", "static-alloc", "reconf-static", "smart-alloc"):
            assert expected in names

    def test_create_policy_with_parameter(self):
        policy = create_policy("smart-alloc:P=4")
        assert isinstance(policy, SmartAllocPolicy)
        assert policy.percent == 4.0

    def test_unknown_policy_rejected(self):
        with pytest.raises(UnknownPolicyError):
            create_policy("does-not-exist")

    @pytest.mark.parametrize("spec,message", [
        ("smart-alloc:threshold_pages=2.5",
         "'threshold_pages': expected an integer, got 2.5"),
        ("smart-alloc:P=nan", "'percent': expected a finite number, got nan"),
        ("smart-alloc:p=0", "'percent': expected a value in (0, 100], got 0"),
    ])
    def test_a_bad_value_names_its_parameter(self, spec, message):
        with pytest.raises(PolicyError) as err:
            create_policy(spec)
        assert str(err.value) == f"policy 'smart-alloc' parameter {message}"

    def test_optional_threshold_takes_none_and_ints(self):
        assert SmartAllocPolicy(threshold_pages=None)._threshold_for(1000) == 50
        assert create_policy("smart-alloc:threshold_pages=32")._threshold_for(1) == 32

    @pytest.mark.parametrize("spec,accepted", [
        ("greedy:foo=1", "[]"),
        ("smart-alloc:P=2,Q=1",
         "['percent', 'threshold_fraction', 'threshold_pages']"),
    ])
    def test_argument_the_policy_does_not_take_rejected(self, spec, accepted):
        with pytest.raises(PolicyError) as err:
            create_policy(spec)
        assert not isinstance(err.value, UnknownPolicyError)
        assert "has no parameter" in str(err.value)
        assert str(err.value).endswith(f"; valid keys: {accepted}")

    def test_malformed_spec_rejected(self):
        with pytest.raises(PolicyError):
            parse_spec("smart-alloc:P=", PolicyError, "policy")
        with pytest.raises(PolicyError):
            parse_spec("smart-alloc:P=abc", PolicyError, "policy")

    def test_parse_spec_multiple_args(self):
        name, kwargs = parse_spec(
            "smart-alloc:P=2,threshold_fraction=0.1", PolicyError, "policy"
        )
        assert name == "smart-alloc"
        assert kwargs == {"p": 2, "threshold_fraction": 0.1}


# ---------------------------------------------------------------------------
# Greedy (the default baseline)
# ---------------------------------------------------------------------------
class TestGreedyPolicy:
    def test_never_changes_targets(self):
        policy = GreedyPolicy()
        view = make_view([(1, 50, -1, 10, 5), (2, 0, -1, 0, 0)])
        decision = policy.decide(view)
        assert not decision.changed
        assert policy.manages_targets is False


# ---------------------------------------------------------------------------
# The Memory Manager is the one target gate
# ---------------------------------------------------------------------------
class TestPoliciesLeaveTheGateToTheManager:
    @pytest.mark.parametrize("policy_cls", [
        StaticAllocPolicy, ReconfStaticPolicy, SmartAllocPolicy,
    ])
    def test_a_policy_hands_back_its_vector_every_interval(self, policy_cls):
        """No policy suppresses a repeat itself; the MM does, once."""
        policy = policy_cls()
        view = make_view([(1, 0, 0, 10, 4, 6), (2, 0, 0, 0, 0, 0)], total_tmem=100)
        first, second = policy.decide(view), policy.decide(view)
        assert first.changed and second.changed
        assert first.targets == second.targets
        manager = MemoryManager(policy_cls())
        sent = [manager.process_snapshot(view).changed for _ in range(3)]
        assert sent == [True, False, False]
        assert manager.stats.decisions_made == 3


# ---------------------------------------------------------------------------
# static-alloc (Algorithm 2)
# ---------------------------------------------------------------------------
class TestStaticAllocPolicy:
    def test_equal_split_on_first_decision(self):
        policy = StaticAllocPolicy()
        view = make_view([(1, 0, -1, 0, 0), (2, 0, -1, 0, 0)], total_tmem=100)
        decision = policy.decide(view)
        assert decision.changed
        assert decision.targets.get(1) == 50 and decision.targets.get(2) == 50

    def test_silent_while_population_unchanged(self):
        manager = MemoryManager(StaticAllocPolicy())
        view = make_view([(1, 0, -1, 0, 0), (2, 0, -1, 0, 0)], total_tmem=100)
        manager.process_snapshot(view)
        second = manager.process_snapshot(view)
        assert not second.changed

    def test_recomputes_when_vm_appears(self):
        policy = StaticAllocPolicy()
        policy.decide(make_view([(1, 0, -1, 0, 0)], total_tmem=90))
        decision = policy.decide(
            make_view([(1, 0, 90, 0, 0), (2, 0, -1, 0, 0), (3, 0, -1, 0, 0)], total_tmem=90)
        )
        assert decision.changed
        assert decision.targets.get(3) == 30

    def test_no_vms_is_a_noop(self):
        policy = StaticAllocPolicy()
        assert not policy.decide(make_view([], total_tmem=10)).changed

    def test_sends_again_when_a_vm_returns(self):
        """The MM compares with the vector it last sent, not with every
        vector it has seen: a population that comes back is resent."""
        manager = MemoryManager(StaticAllocPolicy())
        both = make_view([(1, 0, -1, 0, 0), (2, 0, -1, 0, 0)], total_tmem=10)
        alone = make_view([(1, 0, 5, 0, 0)], total_tmem=10)
        sent = [manager.process_snapshot(view) for view in (both, alone, both)]
        assert [decision.changed for decision in sent] == [True, True, True]
        assert sent[0].targets == sent[2].targets
        assert sent[1].targets.get(1) == 10


# ---------------------------------------------------------------------------
# reconf-static (Algorithm 3)
# ---------------------------------------------------------------------------
class TestReconfStaticPolicy:
    def test_initially_all_targets_zero(self):
        policy = ReconfStaticPolicy()
        view = make_view([(1, 0, -1, 0, 0, 0), (2, 0, -1, 0, 0, 0)], total_tmem=100)
        decision = policy.decide(view)
        assert decision.changed
        assert decision.targets.get(1) == 0 and decision.targets.get(2) == 0

    def test_active_vm_gets_full_pool_while_others_idle(self):
        policy = ReconfStaticPolicy()
        view = make_view([(1, 0, 0, 10, 4, 6), (2, 0, 0, 0, 0, 0)], total_tmem=100)
        decision = policy.decide(view)
        assert decision.targets.get(1) == 100
        assert decision.targets.get(2) == 0

    def test_share_reconfigured_when_second_vm_becomes_active(self):
        policy = ReconfStaticPolicy()
        policy.decide(make_view([(1, 0, 0, 10, 4, 6), (2, 0, 0, 0, 0, 0)], total_tmem=100))
        decision = policy.decide(
            make_view([(1, 40, 100, 5, 5, 6), (2, 0, 0, 8, 2, 6)], total_tmem=100)
        )
        assert decision.changed
        assert decision.targets.get(1) == 50 and decision.targets.get(2) == 50

    def test_active_vm_keeps_share_for_its_lifetime(self):
        manager = MemoryManager(ReconfStaticPolicy())
        manager.process_snapshot(
            make_view([(1, 0, 0, 10, 4, 6), (2, 0, 0, 5, 1, 4)], total_tmem=100)
        )
        # Both go quiet: the split must not change.
        decision = manager.process_snapshot(
            make_view([(1, 10, 50, 0, 0, 6), (2, 10, 50, 0, 0, 4)], total_tmem=100)
        )
        assert not decision.changed

    def test_departed_vm_share_is_redistributed(self):
        policy = ReconfStaticPolicy()
        policy.decide(make_view([(1, 0, 0, 10, 4, 6), (2, 0, 0, 8, 2, 6)], total_tmem=100))
        decision = policy.decide(make_view([(1, 40, 50, 1, 1, 6)], total_tmem=100))
        assert decision.changed
        assert decision.targets.get(1) == 100


# ---------------------------------------------------------------------------
# smart-alloc (Algorithm 4)
# ---------------------------------------------------------------------------
class TestSmartAllocPolicy:
    def test_rejects_bad_percent(self):
        with pytest.raises(PolicyError):
            SmartAllocPolicy(percent=0)
        with pytest.raises(PolicyError):
            SmartAllocPolicy(percent=150)

    def test_increment_on_failed_puts(self):
        policy = SmartAllocPolicy(percent=10, threshold_pages=10)
        view = make_view([(1, 0, 0, 20, 10), (2, 0, 0, 0, 0)], total_tmem=1000)
        decision = policy.decide(view)
        assert decision.changed
        # VM1 had failed puts: target grows by 10% of the pool (=100 pages).
        assert decision.targets.get(1) == 100
        assert decision.targets.get(2) == 0

    def test_decrement_when_far_below_target(self):
        policy = SmartAllocPolicy(percent=10, threshold_pages=50)
        view = make_view([(1, 10, 500, 5, 5)], total_tmem=1000)
        decision = policy.decide(view)
        # No failed puts and usage is 490 below target: shrink by 10%.
        assert decision.targets.get(1) == 450

    def test_no_change_when_within_threshold(self):
        manager = MemoryManager(SmartAllocPolicy(percent=10, threshold_pages=100))
        view = make_view([(1, 450, 500, 5, 5)], total_tmem=1000)
        first = manager.process_snapshot(view)
        assert first.changed  # the very first vector is always transmitted
        assert first.targets.get(1) == 500
        # Usage within the threshold of the target: nothing changes, so the
        # second decision is suppressed (no hypercall traffic).
        second = manager.process_snapshot(view)
        assert not second.changed

    def test_proportional_scale_down_when_overcommitted(self):
        """Equation 2: the pool is never over-committed."""
        policy = SmartAllocPolicy(percent=50, threshold_pages=10)
        view = make_view(
            [(1, 400, 400, 10, 0), (2, 600, 600, 10, 0)], total_tmem=1000
        )
        decision = policy.decide(view)
        assert decision.targets.total() <= 1000
        # Proportions are preserved: VM2 keeps 1.5x VM1's share.
        assert decision.targets.get(2) > decision.targets.get(1)

    def test_duplicate_vector_is_not_resent(self):
        manager = MemoryManager(SmartAllocPolicy(percent=10, threshold_pages=100))
        first = manager.process_snapshot(make_view([(1, 0, 0, 10, 0)], total_tmem=1000))
        assert first.changed
        repeat = manager.process_snapshot(make_view([(1, 90, 100, 5, 5)], total_tmem=1000))
        assert not repeat.changed

    def test_new_vm_starts_with_zero_target(self):
        policy = SmartAllocPolicy(percent=10, threshold_pages=10)
        policy.decide(make_view([(1, 0, 0, 10, 0)], total_tmem=1000))
        decision = policy.decide(
            make_view([(1, 100, 100, 10, 0), (2, 0, -1, 0, 0)], total_tmem=1000)
        )
        assert decision.targets.get(2) == 0

    def test_convergence_towards_equal_shares_under_symmetric_demand(self):
        """With identical sustained demand the targets approach a fair split."""
        policy = SmartAllocPolicy(percent=10, threshold_pages=10)
        targets = {1: 0, 2: 0, 3: 0}
        for _ in range(50):
            view = make_view(
                [(vm, targets[vm], targets[vm], 20, 10) for vm in (1, 2, 3)],
                total_tmem=900,
            )
            decision = policy.decide(view)
            if decision.changed:
                targets = {vm: decision.targets.get(vm) for vm in (1, 2, 3)}
        values = sorted(targets.values())
        assert sum(values) <= 900
        assert values[-1] - values[0] <= 0.2 * 900

    def test_capacity_flows_to_the_needy_vm(self):
        """A VM with sustained failed puts gains share from an idle one."""
        policy = SmartAllocPolicy(percent=5, threshold_pages=10)
        targets = {1: 600, 2: 300}
        usage = {1: 100, 2: 300}
        for _ in range(30):
            view = make_view(
                [
                    (1, usage[1], targets[1], 0, 0),     # idle, far below target
                    (2, usage[2], targets[2], 20, 5),    # swapping hard
                ],
                total_tmem=900,
            )
            decision = policy.decide(view)
            if decision.changed:
                targets = {vm: decision.targets.get(vm) for vm in (1, 2)}
                usage[2] = min(targets[2], 900 - usage[1])
        assert targets[2] > 500
        assert targets[1] < 300

    @given(
        percent=st.sampled_from([0.25, 0.75, 2.0, 4.0, 6.0]),
        demands=st.lists(
            st.tuples(st.integers(0, 40), st.integers(0, 40)),
            min_size=1, max_size=40,
        ),
    )
    def test_targets_never_overcommit_for_any_demand_sequence(self, percent, demands):
        """Property: Equation 2 holds after every decision."""
        policy = SmartAllocPolicy(percent=percent, threshold_pages=10)
        total = 500
        targets = {1: 0, 2: 0}
        for puts1, puts2 in demands:
            view = make_view(
                [
                    (1, min(targets[1], total), targets[1], puts1, puts1 // 2),
                    (2, min(targets[2], total), targets[2], puts2, puts2 // 2),
                ],
                total_tmem=total,
            )
            decision = policy.decide(view)
            if decision.changed:
                assert decision.targets.total() <= total
                for _, value in decision.targets.items():
                    assert value >= 0
                targets = {vm: decision.targets.get(vm) for vm in (1, 2)}
