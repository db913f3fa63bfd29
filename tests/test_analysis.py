"""Tests for metrics, figure data extraction, tables and reports."""

import numpy as np
import pytest

from repro.analysis.figures import runtime_figure, tmem_usage_figure, usemem_phase_figure
from repro.analysis.metrics import (
    fairness_over_time,
    improvement_percent,
    jain_fairness,
    mean_fairness,
    runtime_summary,
    speedup,
)
from repro.analysis.report import (
    format_table,
    render_comparison,
    render_figure_series,
    render_runtime_table,
)
from repro.analysis.tables import table1_statistics, table2_scenarios
from repro.errors import AnalysisError
from repro.scenarios.library import scenario_1, usemem_scenario
from repro.scenarios.runner import run_scenario

SCALE = 0.1
SEED = 11


@pytest.fixture(scope="module")
def results():
    spec = scenario_1(scale=SCALE)
    return {
        "greedy": run_scenario(spec, "greedy", seed=SEED),
        "smart-alloc:P=6": run_scenario(spec, "smart-alloc:P=6", seed=SEED),
    }


@pytest.fixture(scope="module")
def usemem_results():
    spec = usemem_scenario(scale=0.25)
    return {"greedy": run_scenario(spec, "greedy", seed=SEED)}


class TestMetrics:
    def test_jain_fairness_equal_shares(self):
        assert jain_fairness([5, 5, 5]) == pytest.approx(1.0)

    def test_jain_fairness_single_holder(self):
        assert jain_fairness([9, 0, 0]) == pytest.approx(1 / 3)

    def test_jain_fairness_all_zero_is_fair(self):
        assert jain_fairness([0, 0, 0]) == 1.0

    def test_jain_fairness_rejects_bad_input(self):
        with pytest.raises(AnalysisError):
            jain_fairness([])
        with pytest.raises(AnalysisError):
            jain_fairness([-1, 2])

    def test_speedup_and_improvement(self):
        assert speedup(100, 50) == pytest.approx(2.0)
        assert improvement_percent(100, 65) == pytest.approx(35.0)
        assert improvement_percent(100, 120) == pytest.approx(-20.0)

    def test_speedup_rejects_non_positive(self):
        with pytest.raises(AnalysisError):
            speedup(0, 1)
        with pytest.raises(AnalysisError):
            improvement_percent(0, 1)

    def test_runtime_summary_structure(self, results):
        summary = runtime_summary(results["greedy"])
        assert set(summary) == {"VM1", "VM2", "VM3"}
        assert set(summary["VM1"]) == {"run1", "run2"}

    def test_fairness_over_time_shape(self, results):
        data = fairness_over_time(results["greedy"])
        assert data.ndim == 2 and data.shape[1] == 2
        assert np.all((data[:, 1] >= 0) & (data[:, 1] <= 1.0 + 1e-9))

    def test_mean_fairness_bounds(self, results):
        value = mean_fairness(results["greedy"])
        assert 0.0 < value <= 1.0

    def test_mean_fairness_skip_leading_validation(self, results):
        with pytest.raises(AnalysisError):
            mean_fairness(results["greedy"], skip_leading=10**6)


class TestFigures:
    def test_runtime_figure_one_series_per_policy(self, results):
        figure = runtime_figure(results)
        assert set(figure) == set(results)
        series = figure["greedy"]
        assert len(series.y) == 6  # 3 VMs x 2 runs
        assert len(series.x_labels) == 6

    def test_runtime_figure_rejects_empty(self):
        with pytest.raises(AnalysisError):
            runtime_figure({})

    def test_tmem_usage_figure_has_vm_series(self, results):
        figure = tmem_usage_figure(results["greedy"])
        for name in ("VM1", "VM2", "VM3"):
            assert name in figure
            assert len(figure[name].x) == len(figure[name].y)

    def test_tmem_usage_figure_includes_targets_for_managed_policy(self, results):
        figure = tmem_usage_figure(results["smart-alloc:P=6"])
        assert any(name.startswith("target-") for name in figure)

    def test_usemem_phase_figure(self, usemem_results):
        figure = usemem_phase_figure(usemem_results)
        assert "greedy" in figure
        vm1 = figure["greedy"]["VM1"]
        assert vm1  # at least one allocation phase recorded
        assert all(phase.startswith("alloc-") for phase in vm1)
        assert all(duration >= 0 for duration in vm1.values())


class TestTables:
    def test_table1_lists_paper_statistics(self):
        rows = table1_statistics()
        names = {row["statistic"] for row in rows}
        assert "vm_data_hyp[id].tmem_used" in names
        assert "vm_data_hyp[id].mm_target" in names
        assert "memstats.vm[i].puts_succ" in names
        assert "mm_out[i].mm_target" in names
        # Every implemented row points at a real attribute.
        for row in rows:
            assert row["description"]

    def test_table2_matches_scenario_library(self):
        rows = table2_scenarios()
        names = {row["scenario"] for row in rows}
        assert names == {"scenario-1", "scenario-2", "usemem-scenario", "scenario-3"}
        usemem_row = next(r for r in rows if r["scenario"] == "usemem-scenario")
        assert usemem_row["tmem_mb"] == 384


class TestReports:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2], [30, 40]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_render_runtime_table_contains_policies_and_vms(self, results):
        text = render_runtime_table(results, title="Scenario 1")
        assert "Scenario 1" in text
        assert "greedy" in text and "smart-alloc:P=6" in text
        assert "VM1/run1" in text and "VM3/run2" in text

    def test_render_runtime_table_empty(self):
        assert "(no results)" in render_runtime_table({})

    def test_render_figure_series(self, results):
        text = render_figure_series(tmem_usage_figure(results["greedy"]),
                                    title="tmem usage")
        assert "tmem usage" in text
        assert "VM1" in text

    def test_render_comparison(self, results):
        text = render_comparison(results, baseline="greedy", vm_name="VM1")
        assert "smart-alloc:P=6" in text
        assert "vs greedy" in text

    def test_render_comparison_missing_baseline(self, results):
        assert "missing" in render_comparison(results, baseline="nope", vm_name="VM1")
