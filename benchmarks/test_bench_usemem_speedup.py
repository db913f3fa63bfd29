"""Speedup floor of the batched guest engine over the scalar reference.

``usemem-scenario`` at scale 0.25 with a 1024 MB tmem pool sends every
eviction and most faults through the tmem hypercall path, which is the
code the batched engine vectorizes.  There the batched engine must
service at least 3x the scalar engine's pages per second.  Both engines
run in this process, interleaved per repeat, so the ratio holds across
hosts of very different absolute speed.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import replace

from conftest import BENCH_SEED, print_section

from repro.config import GuestConfig, SimulationConfig
from repro.scenarios.library import scenario_by_name
from repro.scenarios.runner import ScenarioRunner
from repro.units import SCENARIO_UNITS

#: Minimum batched/scalar pages-per-second ratio.  The ratio measured when
#: the vectorized fast path landed was ~3.5x; 3.0x leaves room for noise
#: while still catching any real regression of the batched fast path.
USEMEM_MIN_SPEEDUP = 3.0

ENGINES = ("scalar", "batched")


def _speedup(repeats: int) -> float:
    """Batched over scalar pages/s, each from the median wall of *repeats* runs.

    The two engines alternate within each repeat so that slow host drift
    (cron jobs, thermal throttling) biases both equally.
    """
    spec = replace(scenario_by_name("usemem-scenario", scale=0.25), tmem_mb=1024)
    walls = {engine: [] for engine in ENGINES}
    pages = {}
    for _ in range(repeats):
        for engine in ENGINES:
            config = SimulationConfig(
                units=SCENARIO_UNITS, guest=GuestConfig(access_engine=engine)
            )
            runner = ScenarioRunner(spec, "greedy", config=config, seed=BENCH_SEED)
            start = time.perf_counter()
            runner.run()
            walls[engine].append(time.perf_counter() - start)
            pages[engine] = sum(vm.kernel.stats.accesses for vm in runner.vms.values())
    rate = {engine: pages[engine] / statistics.median(walls[engine]) for engine in ENGINES}
    return rate["batched"] / rate["scalar"]


def test_usemem_micro_speedup_floor():
    print_section("Batched vs scalar engine on usemem (tmem pool 1024 MB, scale 0.25)")
    speedup = _speedup(repeats=3)
    print(f"  speedup {speedup:.2f}x")
    if speedup < USEMEM_MIN_SPEEDUP:
        # A noisy-neighbour blip can depress one run; re-measure once
        # with more repeats before declaring a regression.
        speedup = _speedup(repeats=5)
        print(f"  retry: {speedup:.2f}x")
    assert speedup >= USEMEM_MIN_SPEEDUP, (
        f"batched engine only {speedup:.2f}x faster than scalar on "
        f"usemem (floor {USEMEM_MIN_SPEEDUP}x)"
    )
