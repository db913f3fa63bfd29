"""Metrics used to evaluate tmem policies.

The paper's evaluation reads out two quantities: per-VM running time
(lower is better) and the time series of tmem capacity held by each VM
(whose spread measures fairness).  The helpers here compute those, plus
Jain's fairness index which we use to quantify the fairness/adaptiveness
trade-off discussed in Sections V-C and V-D.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from ..errors import AnalysisError
from ..scenarios.results import ScenarioResult

__all__ = [
    "jain_fairness",
    "speedup",
    "improvement_percent",
    "runtime_summary",
    "fairness_over_time",
    "mean_fairness",
]


def jain_fairness(shares: Sequence[float]) -> float:
    """Jain's fairness index of a share vector; 1.0 means perfectly fair.

    ``J = (sum x)^2 / (n * sum x^2)``.  An all-zero vector is defined as
    perfectly fair (nobody holds anything).
    """
    x = np.asarray(list(shares), dtype=np.float64)
    if x.size == 0:
        raise AnalysisError("fairness of an empty share vector is undefined")
    if np.any(x < 0):
        raise AnalysisError("shares must be non-negative")
    total = x.sum()
    if total == 0:
        return 1.0
    return float(total**2 / (x.size * np.sum(x**2)))


def speedup(baseline_s: float, measured_s: float) -> float:
    """Classic speedup: baseline time divided by measured time."""
    if baseline_s <= 0 or measured_s <= 0:
        raise AnalysisError("running times must be positive")
    return baseline_s / measured_s


def improvement_percent(baseline_s: float, measured_s: float) -> float:
    """Relative running-time improvement over a baseline, in percent.

    Matches the paper's convention: "X runs faster than Y by N%" means
    ``(t_Y - t_X) / t_Y * 100``.
    """
    if baseline_s <= 0:
        raise AnalysisError("baseline running time must be positive")
    return (baseline_s - measured_s) / baseline_s * 100.0


def runtime_summary(result: ScenarioResult) -> Dict[str, Dict[str, float]]:
    """Per-VM, per-run running times of one scenario result."""
    summary: Dict[str, Dict[str, float]] = {}
    for vm_name, runs in result.runtimes().items():
        summary[vm_name] = {
            f"run{idx + 1}": duration for idx, duration in enumerate(runs)
        }
    return summary


def fairness_over_time(result: ScenarioResult) -> np.ndarray:
    """Jain fairness of the tmem shares at every sampling instant.

    Returns an array of shape ``(samples, 2)``: column 0 is the sample
    time, column 1 the fairness index across the scenario's VMs.
    """
    series = [result.tmem_usage_series(name) for name in result.vm_names()]
    if not series:
        raise AnalysisError("result has no VMs")
    lengths = {len(s) for s in series}
    n = min(lengths)
    if n == 0:
        raise AnalysisError("tmem usage traces are empty")
    times = series[0].times[:n]
    values = np.stack([s.values[:n] for s in series], axis=1)
    fairness = np.array([jain_fairness(row) for row in values])
    return np.stack([times, fairness], axis=1)


def mean_fairness(result: ScenarioResult, *, skip_leading: int = 0) -> float:
    """Mean Jain fairness over the run (optionally skipping warm-up samples)."""
    data = fairness_over_time(result)
    if skip_leading >= data.shape[0]:
        raise AnalysisError("skip_leading removes every sample")
    return float(np.mean(data[skip_leading:, 1]))
