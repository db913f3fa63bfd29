"""File-backed scan workload: clean page-cache reads served via cleancache.

The three paper benchmarks model anonymous memory (every access dirties
its page, so overflow goes through frontswap — tmem's *persistent*
pools).  ``filescan`` models the other half of the tmem design: a
process repeatedly reading a file set larger than guest RAM.  Its
accesses are *clean* (``write=False``), so when the guest page cache
evicts one of these pages, the page is offered to cleancache — tmem's
*ephemeral* pools — where the hypervisor may keep it (and may silently
drop it under pressure, which is always legal for clean file data).

Access pattern: the file set is read sequentially once (the initial
scan), then re-read for a number of passes in which a hot subset of the
file is favoured — a crude but deterministic stand-in for a database or
web server whose index pages are re-read far more often than the bulk
data.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from ..units import MemoryUnits
from .base import Workload, WorkloadPhase, WorkloadStep
from .registry import WORKLOADS

__all__ = ["FileScanWorkload"]


@WORKLOADS.register(
    "filescan",
    param_docs={
        "file_mb": "size of the scanned file set",
        "hot_fraction": "leading fraction of the file favoured on re-reads",
        "hot_weight": "fraction of re-read accesses hitting the hot subset",
        "passes": "number of re-read passes after the initial scan",
        "accesses_per_pass_factor": "accesses per pass, as a fraction of the file",
        "compute_time_per_page_s": "pure CPU time modelled per accessed page",
        "burst_pages": "pages per access burst (one WorkloadStep)",
    },
    bounds={
        "file_mb": "> 0", "hot_fraction": "(0, 1]", "hot_weight": "(0, 1]",
        "passes": ">= 0", "accesses_per_pass_factor": "> 0",
        "compute_time_per_page_s": ">= 0", "burst_pages": ">= 1",
    },
)
class FileScanWorkload(Workload):
    """Repeated scans over a file set, with a re-read hot subset."""

    uses_cleancache = True

    def __init__(
        self,
        *,
        units: MemoryUnits,
        rng: np.random.Generator,
        file_mb: int = 512,
        hot_fraction: float = 0.25,
        hot_weight: float = 0.8,
        passes: int = 4,
        accesses_per_pass_factor: float = 1.0,
        compute_time_per_page_s: float = 0.5e-3,
        burst_pages: int = 64,
    ) -> None:
        super().__init__(units=units, rng=rng)
        self._file_mb = file_mb
        self._hot_fraction = hot_fraction
        self._hot_weight = hot_weight
        self._passes = passes
        self._access_factor = accesses_per_pass_factor
        self._compute_per_page = compute_time_per_page_s
        self._burst_pages = burst_pages

    # -- the contract -------------------------------------------------------
    def generate_steps(self) -> Iterator[WorkloadStep]:
        file_pages = self._units.pages_from_mib(self._file_mb)
        hot_pages = max(1, int(round(file_pages * self._hot_fraction)))

        # Initial sequential scan: every page read once, in order.
        sequential = np.arange(file_pages, dtype=np.int64)
        for burst in self._chunk(sequential, self._burst_pages):
            yield WorkloadStep(
                compute_time_s=len(burst) * self._compute_per_page,
                pages=burst,
                phase="scan",
                write=False,
            )

        # Re-read passes: hot-weighted random reads over the file.
        accesses = max(1, int(round(file_pages * self._access_factor)))
        for iteration in range(1, self._passes + 1):
            hot_mask = self._rng.random(accesses) < self._hot_weight
            hot_hits = int(hot_mask.sum())
            reads = np.empty(accesses, dtype=np.int64)
            reads[hot_mask] = self._rng.integers(0, hot_pages, size=hot_hits)
            reads[~hot_mask] = self._rng.integers(
                hot_pages, file_pages, size=accesses - hot_hits
            ) if hot_pages < file_pages else self._rng.integers(
                0, file_pages, size=accesses - hot_hits
            )
            for burst in self._chunk(reads, self._burst_pages):
                yield WorkloadStep(
                    compute_time_s=len(burst) * self._compute_per_page,
                    pages=burst,
                    phase=f"reread-{iteration}",
                    write=False,
                )

    def phases(self) -> Sequence[WorkloadPhase]:
        return (
            WorkloadPhase("scan", "initial sequential read of the file set"),
            *(
                WorkloadPhase(f"reread-{i}", "hot-weighted re-read pass")
                for i in range(1, self._passes + 1)
            ),
        )

    def peak_footprint_pages(self) -> int:
        # Clean file pages are never swapped: dropping them is free, so
        # they can't overflow the guest swap area.
        return 0
