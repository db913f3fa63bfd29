"""Tests for the workload models and access-pattern generators."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import WorkloadError
from repro.sim.rng import RngFactory
from repro.units import MemoryUnits
from repro.workloads.access_patterns import (
    sequential_pages,
    working_set_pages,
    zipf_pages,
)
from repro.workloads.graph_analytics import GraphAnalyticsWorkload
from repro.workloads.inmemory_analytics import InMemoryAnalyticsWorkload
from repro.workloads.usemem import UsememWorkload

UNITS = MemoryUnits(page_bytes=1024 * 1024)  # 1 MiB pages keep tests small


def rng(name="w"):
    return RngFactory(99).stream(name)


# ---------------------------------------------------------------------------
# access patterns
# ---------------------------------------------------------------------------
class TestAccessPatterns:
    def test_sequential_covers_region_in_order(self):
        pages = sequential_pages(10, 5)
        assert pages.tolist() == [10, 11, 12, 13, 14]

    def test_sequential_rejects_empty_region(self):
        with pytest.raises(WorkloadError):
            sequential_pages(0, 0)

    def test_zipf_stays_in_region_and_is_skewed(self):
        pages = zipf_pages(100, 50, 5000, alpha=1.1, rng=rng())
        assert pages.min() >= 100 and pages.max() < 150
        counts = np.bincount(pages - 100, minlength=50)
        # The most popular page receives far more than the mean.
        assert counts.max() > 3 * counts.mean()

    def test_zipf_rejects_bad_alpha(self):
        with pytest.raises(WorkloadError):
            zipf_pages(0, 10, 10, alpha=0, rng=rng())

    def test_working_set_hot_pages_receive_hot_weight(self):
        pages = working_set_pages(
            0, 100, 10000, hot_fraction=0.1, hot_weight=0.9, rng=rng()
        )
        hot_hits = np.count_nonzero(pages < 10)
        assert 0.85 < hot_hits / len(pages) < 0.95

    def test_working_set_validates_fractions(self):
        with pytest.raises(WorkloadError):
            working_set_pages(0, 10, 10, hot_fraction=0, hot_weight=0.5, rng=rng())
        with pytest.raises(WorkloadError):
            working_set_pages(0, 10, 10, hot_fraction=0.5, hot_weight=1.5, rng=rng())

    @given(
        base=st.integers(0, 1000),
        num=st.integers(1, 200),
        count=st.integers(1, 500),
        alpha=st.floats(0.3, 2.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_zipf_pages_always_within_bounds(self, base, num, count, alpha):
        pages = zipf_pages(base, num, count, alpha=alpha, rng=rng("prop"))
        assert pages.shape == (count,)
        assert pages.min() >= base and pages.max() < base + num


# ---------------------------------------------------------------------------
# shared workload behaviour
# ---------------------------------------------------------------------------
def collect(workload):
    return list(workload)


class TestWorkloadProtocol:
    def test_single_use_enforced(self):
        wl = UsememWorkload(units=UNITS, rng=rng(), start_mb=4, increment_mb=4,
                            max_mb=8, steady_sweeps=0)
        collect(wl)
        with pytest.raises(WorkloadError):
            iter(wl)

    def test_steps_have_non_negative_compute_time(self):
        wl = InMemoryAnalyticsWorkload(
            units=UNITS, rng=rng(), dataset_mb=8, model_mb=4,
            growth_per_iteration_mb=2, iterations=2,
        )
        for step in wl:
            assert step.compute_time_s >= 0
            assert len(step.pages) > 0

    def test_same_seed_same_steps(self):
        def build():
            return GraphAnalyticsWorkload(
                units=UNITS, rng=RngFactory(5).stream("g"), graph_mb=8,
                rank_vectors_mb=2, iterations=2,
            )
        a = [step.pages for step in build()]
        b = [step.pages for step in build()]
        assert len(a) == len(b)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_different_seeds_differ(self):
        def build(seed):
            return GraphAnalyticsWorkload(
                units=UNITS, rng=RngFactory(seed).stream("g"), graph_mb=8,
                rank_vectors_mb=2, iterations=2,
            )
        a = np.concatenate([s.pages for s in build(1)])
        b = np.concatenate([s.pages for s in build(2)])
        assert not np.array_equal(a, b)


# ---------------------------------------------------------------------------
# usemem
# ---------------------------------------------------------------------------
class TestUsemem:
    def test_allocation_sizes(self):
        wl = UsememWorkload(units=UNITS, rng=rng(), start_mb=128,
                            increment_mb=128, max_mb=512)
        assert wl.allocation_sizes_mb() == [128, 256, 384, 512]

    def test_rejects_inconsistent_sizes(self):
        with pytest.raises(WorkloadError):
            UsememWorkload(units=UNITS, rng=rng(), start_mb=512, max_mb=128)

    def test_phase_labels_follow_allocation_sizes(self):
        wl = UsememWorkload(units=UNITS, rng=rng(), start_mb=4, increment_mb=4,
                            max_mb=8, steady_sweeps=1)
        phases = []
        for step in wl:
            if step.phase not in phases:
                phases.append(step.phase)
        assert phases == ["alloc-4MB", "alloc-8MB", "steady-8MB"]

    def test_footprint_matches_max_allocation(self):
        wl = UsememWorkload(units=UNITS, rng=rng(), start_mb=4, increment_mb=4, max_mb=16)
        assert wl.peak_footprint_pages() == UNITS.pages_from_mib(16)

    def test_touched_pages_cover_the_full_allocation(self):
        wl = UsememWorkload(units=UNITS, rng=rng(), start_mb=4, increment_mb=4,
                            max_mb=8, steady_sweeps=0)
        touched = set()
        for step in wl:
            touched.update(int(p) for p in step.pages)
        assert touched == set(range(UNITS.pages_from_mib(8)))

    def test_sweeps_are_linear(self):
        wl = UsememWorkload(units=UNITS, rng=rng(), start_mb=4, increment_mb=4,
                            max_mb=4, sweeps_per_phase=1, steady_sweeps=0)
        steps = collect(wl)
        first_sweep = np.concatenate([s.pages for s in steps])
        # first touch 0..3 then one sweep 0..3 again
        assert first_sweep.tolist() == [0, 1, 2, 3, 0, 1, 2, 3]


# ---------------------------------------------------------------------------
# in-memory-analytics
# ---------------------------------------------------------------------------
class TestInMemoryAnalytics:
    def make(self, **kwargs):
        defaults = dict(units=UNITS, rng=rng(), dataset_mb=16, model_mb=8,
                        growth_per_iteration_mb=2, iterations=3)
        defaults.update(kwargs)
        return InMemoryAnalyticsWorkload(**defaults)

    def test_phases_load_train_predict(self):
        phases = [p.name for p in self.make().phases()]
        assert phases[0] == "load"
        assert phases[-1] == "predict"
        assert "train-1" in phases and "train-3" in phases

    def test_footprint_grows_with_iterations(self):
        small = self.make(iterations=1).peak_footprint_pages()
        large = self.make(iterations=6).peak_footprint_pages()
        assert large > small

    def test_step_phases_progress_monotonically(self):
        seen = []
        for step in self.make():
            if step.phase not in seen:
                seen.append(step.phase)
        assert seen[0] == "load" and seen[-1] == "predict"
        assert seen[1:-1] == [f"train-{i}" for i in range(1, 4)]

    def test_accesses_concentrate_on_model_pages(self):
        wl = self.make(hot_weight=0.9, iterations=2)
        dataset_pages = UNITS.pages_from_mib(16)
        model_pages = UNITS.pages_from_mib(8)
        train_accesses = np.concatenate(
            [s.pages for s in wl if s.phase.startswith("train")]
        )
        in_model = np.count_nonzero(
            (train_accesses >= dataset_pages)
            & (train_accesses < dataset_pages + model_pages)
        )
        assert in_model / len(train_accesses) > 0.5

    def test_rejects_bad_parameters(self):
        with pytest.raises(WorkloadError):
            self.make(dataset_mb=0)
        with pytest.raises(WorkloadError):
            self.make(iterations=0)
        with pytest.raises(WorkloadError):
            self.make(hot_weight=0.0)
        with pytest.raises(WorkloadError):
            self.make(load_cost_factor=0.0)


# ---------------------------------------------------------------------------
# graph-analytics
# ---------------------------------------------------------------------------
class TestGraphAnalytics:
    def make(self, **kwargs):
        defaults = dict(units=UNITS, rng=rng(), graph_mb=16, rank_vectors_mb=4,
                        iterations=2)
        defaults.update(kwargs)
        return GraphAnalyticsWorkload(**defaults)

    def test_phases(self):
        names = [p.name for p in self.make().phases()]
        assert names[0] == "load-graph" and names[-1] == "write-ranks"

    def test_footprint(self):
        assert self.make().peak_footprint_pages() == UNITS.pages_from_mib(20)

    def test_load_phase_touches_whole_graph(self):
        wl = self.make()
        load_pages = set()
        for step in wl:
            if step.phase == "load-graph":
                load_pages.update(int(p) for p in step.pages)
        assert len(load_pages) == UNITS.pages_from_mib(20)

    def test_gather_accesses_are_skewed(self):
        wl = self.make(graph_mb=32, iterations=1, gather_accesses_factor=20,
                       zipf_alpha=1.1)
        graph_pages = UNITS.pages_from_mib(32)
        gathers = np.concatenate(
            [s.pages for s in wl if s.phase.startswith("pagerank")]
        )
        gathers = gathers[gathers < graph_pages]
        counts = np.bincount(gathers, minlength=graph_pages)
        assert counts.max() > 3 * counts.mean()

    def test_page_popularity_is_not_a_parameter(self):
        with pytest.raises(WorkloadError, match="no parameter 'page_popularity'"):
            self.make(page_popularity=0.5)

    def test_rejects_bad_parameters(self):
        with pytest.raises(WorkloadError):
            self.make(graph_mb=0)
        with pytest.raises(WorkloadError):
            self.make(zipf_alpha=0)
