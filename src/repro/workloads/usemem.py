"""The usemem micro-benchmark (Section IV of the paper).

Usemem allocates memory incrementally: it starts with a 128 MB region,
sweeps it linearly with reads/writes, then grows the allocation by another
128 MB and sweeps the whole area again, and so on until it reaches 1 GB.
Once at 1 GB it keeps sweeping the full allocation until it is stopped
externally.

The phase labels encode the current allocation size ("alloc-256MB",
"steady-1024MB"), which is what the usemem scenario uses both for its
cross-VM trigger (VM3 starts when VM1/VM2 attempt to allocate 640 MB) and
for the per-allocation running times reported in Figure 7.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence

import numpy as np

from ..errors import WorkloadError
from ..units import MemoryUnits
from .access_patterns import sequential_pages
from .base import Workload, WorkloadPhase, WorkloadStep
from .registry import WORKLOADS

__all__ = ["UsememWorkload"]


@WORKLOADS.register(
    "usemem",
    param_docs={
        "start_mb": "first allocation target",
        "increment_mb": "growth per allocation phase",
        "max_mb": "final allocation target (at least start_mb)",
        "sweeps_per_phase": "full sweeps over the footprint per allocation phase",
        "steady_sweeps": "extra sweeps after reaching max_mb",
        "compute_time_per_page_s": "pure CPU time modelled per accessed page",
        "burst_pages": "pages per access burst (one WorkloadStep)",
    },
    bounds={
        "start_mb": "> 0", "increment_mb": "> 0", "max_mb": "> 0",
        "sweeps_per_phase": ">= 1", "steady_sweeps": ">= 0",
        "compute_time_per_page_s": ">= 0", "burst_pages": ">= 1",
    },
)
class UsememWorkload(Workload):
    """Incremental allocate-and-sweep micro-benchmark."""

    def __init__(
        self,
        *,
        units: MemoryUnits,
        rng: np.random.Generator,
        start_mb: int = 128,
        increment_mb: int = 128,
        max_mb: int = 1024,
        sweeps_per_phase: int = 2,
        steady_sweeps: int = 12,
        compute_time_per_page_s: float = 0.5e-3,
        burst_pages: int = 64,
    ) -> None:
        super().__init__(units=units, rng=rng)
        if max_mb < start_mb:
            raise WorkloadError(f"usemem needs start_mb <= max_mb, got {start_mb} > {max_mb}")
        self._start_mb = start_mb
        self._increment_mb = increment_mb
        self._max_mb = max_mb
        self._sweeps_per_phase = sweeps_per_phase
        self._steady_sweeps = steady_sweeps
        self._compute_per_page = compute_time_per_page_s
        self._burst_pages = burst_pages

    # -- documentation helpers ---------------------------------------------
    def allocation_sizes_mb(self) -> List[int]:
        """The successive allocation targets, e.g. [128, 256, ..., 1024]."""
        sizes = []
        size = self._start_mb
        while size <= self._max_mb:
            sizes.append(size)
            size += self._increment_mb
        return sizes

    def phases(self) -> Sequence[WorkloadPhase]:
        phases = [
            WorkloadPhase(
                name=f"alloc-{mb}MB",
                description=f"grow the allocation to {mb} MB and sweep it",
            )
            for mb in self.allocation_sizes_mb()
        ]
        phases.append(
            WorkloadPhase(
                name=f"steady-{self._max_mb}MB",
                description="keep sweeping the full allocation until stopped",
            )
        )
        return phases

    def peak_footprint_pages(self) -> int:
        return self._units.pages_from_mib(self._max_mb)

    # -- step generation ------------------------------------------------------
    def _sweep(
        self, total_pages: int, phase: str, *, sweeps: int
    ) -> Iterator[WorkloadStep]:
        """Linear sweeps over ``[0, total_pages)``."""
        pages = sequential_pages(0, total_pages)
        for _ in range(sweeps):
            for burst in self._chunk(pages, self._burst_pages):
                yield WorkloadStep(
                    compute_time_s=self._compute_per_page * len(burst),
                    pages=burst,
                    phase=phase,
                )

    def generate_steps(self) -> Iterator[WorkloadStep]:
        previous_pages = 0
        for mb in self.allocation_sizes_mb():
            phase = f"alloc-{mb}MB"
            total_pages = self._units.pages_from_mib(mb)
            # Touch the newly allocated region first (first-touch faults)...
            if total_pages > previous_pages:
                fresh = sequential_pages(previous_pages, total_pages - previous_pages)
                for burst in self._chunk(fresh, self._burst_pages):
                    yield WorkloadStep(
                        compute_time_s=self._compute_per_page * len(burst),
                        pages=burst,
                        phase=phase,
                    )
            previous_pages = total_pages
            # ...then sweep the whole allocation linearly.
            yield from self._sweep(total_pages, phase, sweeps=self._sweeps_per_phase)

        # Steady state: keep sweeping the maximum allocation.  The scenario
        # normally stops the VM before these sweeps are exhausted; the cap
        # only bounds the simulation if nothing stops it.
        steady_phase = f"steady-{self._max_mb}MB"
        yield from self._sweep(
            self._units.pages_from_mib(self._max_mb),
            steady_phase,
            sweeps=self._steady_sweeps,
        )
