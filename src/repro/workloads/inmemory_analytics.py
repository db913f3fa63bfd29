"""Stand-in for CloudSuite *in-memory-analytics*.

The CloudSuite benchmark runs a Spark ALS (alternating least squares)
recommender over the MovieLens ratings dataset.  We cannot run Spark or
ship MovieLens here, so this workload reproduces the *memory behaviour*
that drives the paper's results instead:

1. **load** — the ratings dataset is read and materialised as JVM objects,
   producing a fast, mostly sequential ramp of the heap towards the
   dataset size.
2. **train-i** — a fixed number of ALS iterations.  Each iteration sweeps
   the (hot) model factors repeatedly and the (cold) ratings partitions
   once, which we express with the classic hot/cold working-set access
   pattern.  The heap also grows slightly per iteration (shuffle buffers,
   factor copies), which is what pushes the footprint past the VM's RAM
   and generates sustained tmem/swap traffic.
3. **predict** — one final pass over the model to emit recommendations.

The total footprint is a constructor parameter; the scenario library sizes
it relative to the VM's RAM exactly as the paper's configuration does
(1 GB RAM VMs running a dataset that does not fit).
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from ..units import MemoryUnits
from .access_patterns import sequential_pages, working_set_pages
from .base import Workload, WorkloadPhase, WorkloadStep
from .registry import WORKLOADS

__all__ = ["InMemoryAnalyticsWorkload"]


@WORKLOADS.register(
    "in-memory-analytics",
    param_docs={
        "dataset_mb": "size of the cached input dataset",
        "model_mb": "initial size of the model state",
        "growth_per_iteration_mb": "model growth per training iteration",
        "iterations": "number of training iterations",
        "accesses_per_iteration_factor": "dataset accesses per iteration, as a fraction of the dataset",
        "hot_weight": "fraction of accesses hitting the hot working set",
        "compute_time_per_page_s": "pure CPU time modelled per accessed page",
        "load_cost_factor": "CPU multiplier while loading the dataset",
        "burst_pages": "pages per access burst (one WorkloadStep)",
    },
    bounds={
        "dataset_mb": "> 0", "model_mb": "> 0", "growth_per_iteration_mb": ">= 0",
        "iterations": "> 0", "accesses_per_iteration_factor": "> 0",
        "hot_weight": "(0, 1]", "compute_time_per_page_s": ">= 0",
        "load_cost_factor": "> 0", "burst_pages": ">= 1",
    },
)
class InMemoryAnalyticsWorkload(Workload):
    """Hot/cold working-set model of a Spark ALS recommender run."""

    def __init__(
        self,
        *,
        units: MemoryUnits,
        rng: np.random.Generator,
        dataset_mb: int = 700,
        model_mb: int = 300,
        growth_per_iteration_mb: int = 60,
        iterations: int = 8,
        accesses_per_iteration_factor: float = 1.6,
        hot_weight: float = 0.75,
        compute_time_per_page_s: float = 4.0e-3,
        load_cost_factor: float = 2.0,
        burst_pages: int = 48,
    ) -> None:
        super().__init__(units=units, rng=rng)
        self._dataset_mb = dataset_mb
        self._model_mb = model_mb
        self._growth_mb = growth_per_iteration_mb
        self._iterations = iterations
        self._access_factor = accesses_per_iteration_factor
        self._hot_weight = hot_weight
        self._compute_per_page = compute_time_per_page_s
        # The dataset is parsed and materialised as objects while it loads,
        # so demand grows at tens of MB/s (not at memcpy speed); the factor
        # scales the per-page cost of the load phase accordingly.
        self._load_cost_factor = load_cost_factor
        self._burst_pages = burst_pages

    # -- documentation helpers --------------------------------------------------
    def phases(self) -> Sequence[WorkloadPhase]:
        return (
            [WorkloadPhase("load", "materialise the ratings dataset in memory")]
            + [
                WorkloadPhase(f"train-{i}", "one ALS iteration over factors + ratings")
                for i in range(1, self._iterations + 1)
            ]
            + [WorkloadPhase("predict", "final pass over the trained model")]
        )

    def peak_footprint_pages(self) -> int:
        total_mb = (
            self._dataset_mb
            + self._model_mb
            + self._growth_mb * self._iterations
        )
        return self._units.pages_from_mib(total_mb)

    # -- step generation -------------------------------------------------------------
    def generate_steps(self) -> Iterator[WorkloadStep]:
        units = self._units
        dataset_pages = units.pages_from_mib(self._dataset_mb)
        model_pages = units.pages_from_mib(self._model_mb)
        growth_pages = units.pages_from_mib(self._growth_mb)

        # Phase 1: load the dataset (sequential ramp).
        load_pages = sequential_pages(0, dataset_pages)
        for burst in self._chunk(load_pages, self._burst_pages):
            yield WorkloadStep(
                compute_time_s=self._compute_per_page * len(burst) * self._load_cost_factor,
                pages=burst,
                phase="load",
            )
        # The model factors live right after the dataset in the page space.
        model_base = dataset_pages
        model_region = sequential_pages(model_base, model_pages)
        for burst in self._chunk(model_region, self._burst_pages):
            yield WorkloadStep(
                compute_time_s=self._compute_per_page * len(burst) * self._load_cost_factor,
                pages=burst,
                phase="load",
            )

        # Phase 2: training iterations.
        scratch_base = dataset_pages + model_pages
        footprint = scratch_base
        for iteration in range(1, self._iterations + 1):
            phase = f"train-{iteration}"
            # Per-iteration heap growth (shuffle buffers, factor copies).
            if growth_pages:
                fresh = sequential_pages(footprint, growth_pages)
                footprint += growth_pages
                for burst in self._chunk(fresh, self._burst_pages):
                    yield WorkloadStep(
                        compute_time_s=self._compute_per_page * len(burst) * 0.5,
                        pages=burst,
                        phase=phase,
                    )
            # Hot model factors + colder sweeps over the whole heap.
            accesses = int(footprint * self._access_factor)
            # The hot set is the model region: remap the working-set draw so
            # its "hot" prefix lands on the model pages.
            pattern = working_set_pages(
                0,
                footprint,
                accesses,
                hot_fraction=max(model_pages / footprint, 1e-6),
                hot_weight=self._hot_weight,
                rng=self._rng,
            )
            # Rotate so the hot prefix [0, model_pages) maps onto the model
            # region while the cold remainder maps onto dataset + scratch.
            pattern = (pattern + model_base) % footprint
            for burst in self._chunk(pattern, self._burst_pages):
                yield WorkloadStep(
                    compute_time_s=self._compute_per_page * len(burst),
                    pages=burst,
                    phase=phase,
                )

        # Phase 3: prediction pass over the model.
        predict_pages = sequential_pages(model_base, model_pages)
        for burst in self._chunk(predict_pages, self._burst_pages):
            yield WorkloadStep(
                compute_time_s=self._compute_per_page * len(burst) * 0.8,
                pages=burst,
                phase="predict",
            )
