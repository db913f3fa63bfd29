"""Property-style tests for the rounding invariants of repro.core.targets.

Equation 1 of the paper requires the per-VM targets to sum *exactly* to
the pool capacity — largest-remainder rounding exists precisely so no
page is stranded and no page is invented.  These tests sweep randomized
and adversarial inputs (remainders, zero capacities, zero-valued
targets, huge disparities) and assert the invariants hold everywhere.
The same helpers back the cluster coordinator's capacity splits, so
these invariants now protect two layers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.stats import TargetVector
from repro.core.targets import cap_targets, equal_share, proportional_scale
from repro.errors import PolicyError


def random_cases(seed: int, count: int):
    """Deterministic stream of (vm_ids, totals, raw targets) cases."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 12))
        vm_ids = sorted(
            int(v) for v in rng.choice(2000, size=n, replace=False)
        )
        total = int(rng.integers(0, 100_000))
        values = rng.integers(0, 50_000, size=n)
        yield vm_ids, total, {vm: int(v) for vm, v in zip(vm_ids, values)}


class TestEqualShareInvariants:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_sums_exactly_to_capacity(self, seed):
        for vm_ids, total, _ in random_cases(seed, 200):
            vector = equal_share(vm_ids, total)
            assert vector.total() == total
            assert sorted(vm for vm, _ in vector.items()) == vm_ids

    @pytest.mark.parametrize("seed", [6, 7, 8])
    def test_shares_differ_by_at_most_one_page(self, seed):
        for vm_ids, total, _ in random_cases(seed, 200):
            values = [value for _, value in equal_share(vm_ids, total).items()]
            assert max(values) - min(values) <= 1
            assert min(values) >= 0

    def test_remainder_goes_to_lowest_ids(self):
        vector = equal_share([5, 1, 9], 11)  # 3 VMs, remainder 2
        assert dict(vector.items()) == {1: 4, 5: 4, 9: 3}

    def test_exhaustive_small_cases(self):
        for n in range(1, 7):
            vm_ids = list(range(1, n + 1))
            for total in range(0, 4 * n + 1):
                vector = equal_share(vm_ids, total)
                assert vector.total() == total

    def test_zero_capacity(self):
        vector = equal_share([1, 2, 3], 0)
        assert vector.total() == 0
        assert all(value == 0 for _, value in vector.items())

    def test_no_vms(self):
        assert equal_share([], 512).total() == 0

    def test_duplicate_ids_collapse(self):
        vector = equal_share([2, 2, 3], 10)
        assert sorted(vm for vm, _ in vector.items()) == [2, 3]
        assert vector.total() == 10

    def test_negative_capacity_rejected(self):
        with pytest.raises(PolicyError):
            equal_share([1], -1)


class TestProportionalScaleInvariants:
    @pytest.mark.parametrize("seed", [11, 12, 13, 14, 15])
    def test_sums_exactly_to_capacity(self, seed):
        for _, total, raw in random_cases(seed, 200):
            scaled = proportional_scale(TargetVector(raw), total)
            assert scaled.total() == total

    @pytest.mark.parametrize("seed", [16, 17, 18])
    def test_rounding_error_below_one_page(self, seed):
        """Largest-remainder rounding never drifts a share by >= 1 page."""
        for _, total, raw in random_cases(seed, 100):
            raw_sum = sum(raw.values())
            if raw_sum == 0:
                continue
            scaled = proportional_scale(TargetVector(raw), total)
            for vm_id, value in scaled.items():
                exact = total * raw[vm_id] / raw_sum
                assert abs(value - exact) < 1.0

    def test_all_zero_targets_fall_back_to_equal_split(self):
        scaled = proportional_scale(TargetVector({1: 0, 2: 0, 3: 0}), 10)
        assert scaled.total() == 10
        values = [value for _, value in scaled.items()]
        assert max(values) - min(values) <= 1

    def test_zero_capacity_zeroes_everything(self):
        scaled = proportional_scale(TargetVector({1: 7, 2: 3}), 0)
        assert scaled.total() == 0
        assert all(value == 0 for _, value in scaled.items())

    def test_huge_disparity_keeps_small_share_nonnegative(self):
        scaled = proportional_scale(TargetVector({1: 10**9, 2: 1}), 1000)
        assert scaled.total() == 1000
        assert all(value >= 0 for _, value in scaled.items())

    def test_scale_up_preserves_order(self):
        raw = {1: 10, 2: 30, 3: 60}
        scaled = proportional_scale(TargetVector(raw), 10_000)
        values = dict(scaled.items())
        assert values[1] <= values[2] <= values[3]
        assert scaled.total() == 10_000

    def test_negative_capacity_rejected(self):
        with pytest.raises(PolicyError):
            proportional_scale(TargetVector({1: 1}), -5)


class TestCapInvariants:
    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_cap_never_exceeds_capacity(self, seed):
        for _, total, raw in random_cases(seed, 150):
            capped = cap_targets(TargetVector(raw), total)
            assert capped.total() <= max(total, sum(raw.values()))
            if sum(raw.values()) > total:
                assert capped.total() == total
            else:
                assert dict(capped.items()) == raw

    def test_cap_empty_vector_is_empty(self):
        assert dict(cap_targets(TargetVector(), 100).items()) == {}
