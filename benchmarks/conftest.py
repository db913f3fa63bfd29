"""Shared infrastructure for the benchmark/experiment harness.

Every benchmark module reproduces one table or figure of the paper: it runs
the corresponding scenario under the relevant policies at full scale
(``scale=1.0``, i.e. the paper's 1 GB / 512 MB sizes mapped onto 256 KiB
simulated pages), prints the same rows/series the paper reports, and checks
the qualitative *shape* of the result (who wins, roughly by how much).

Scenario executions are cached per pytest session so that a figure bench
and its companion trace bench do not re-run the same simulation, and the
``benchmark`` fixture times a single representative simulation run rather
than the whole policy sweep.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping

import pytest

from repro.scenarios.library import scenario_by_name
from repro.scenarios.results import ScenarioResult
from repro.scenarios.runner import run_scenario

#: Scale of the benchmark runs.  1.0 reproduces the paper's sizes.
BENCH_SCALE = 1.0
#: Seed used for every benchmark run (results are deterministic).
BENCH_SEED = 2019


class ScenarioCache:
    """Runs (scenario, policy) combinations once per session."""

    def __init__(self) -> None:
        self._results: Dict[tuple, ScenarioResult] = {}

    def result(self, scenario: str, policy: str, *, scale: float = BENCH_SCALE,
               seed: int = BENCH_SEED) -> ScenarioResult:
        key = (scenario, policy, scale, seed)
        if key not in self._results:
            spec = scenario_by_name(scenario, scale=scale)
            self._results[key] = run_scenario(spec, policy, seed=seed)
        return self._results[key]

    def results(self, scenario: str, policies: Iterable[str], *,
                scale: float = BENCH_SCALE,
                seed: int = BENCH_SEED) -> Dict[str, ScenarioResult]:
        return {p: self.result(scenario, p, scale=scale, seed=seed) for p in policies}


@pytest.fixture(scope="session")
def scenario_cache() -> ScenarioCache:
    return ScenarioCache()


def print_section(title: str) -> None:
    print()
    print("=" * 78)
    print(title)
    print("=" * 78)


def print_improvements(results: Mapping[str, ScenarioResult], *, baseline: str,
                       candidate: str) -> None:
    """Print per-VM/run improvement of *candidate* over *baseline*."""
    from repro.analysis.metrics import improvement_percent

    base = results[baseline]
    cand = results[candidate]
    print(f"\nImprovement of {candidate} over {baseline}:")
    for vm_name in base.vm_names():
        for run in base.vm(vm_name).runs:
            b = run.duration_s
            try:
                c = cand.runtime_of(vm_name, run.run_index)
            except Exception:
                continue
            print(
                f"  {vm_name}/run{run.run_index + 1}: "
                f"{b:.1f}s -> {c:.1f}s ({improvement_percent(b, c):+.1f}%)"
            )
