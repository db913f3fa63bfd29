"""Stand-in for CloudSuite *graph-analytics*.

The CloudSuite benchmark runs PageRank (GraphX on Spark) over the
``soc-twitter-follows`` social graph.  We reproduce its memory behaviour:

1. **load-graph** — the edge list is parsed and the in-memory CSR
   structures are built: a *fast, front-loaded allocation burst* (the
   paper highlights that graph-analytics grabs a large amount of tmem
   right at the start, which is what starves the later-arriving VM3 in
   Scenarios 2 and 3).
2. **pagerank-i** — iterative rank propagation.  Each iteration streams
   the rank vectors sequentially and gathers over the edge array with a
   heavy-tailed (Zipf) vertex popularity, the access skew characteristic
   of social graphs.
3. **write-ranks** — a final sequential pass to emit the result.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from ..units import MemoryUnits
from .access_patterns import sequential_pages, zipf_pages
from .base import Workload, WorkloadPhase, WorkloadStep
from .registry import WORKLOADS

__all__ = ["GraphAnalyticsWorkload"]


@WORKLOADS.register(
    "graph-analytics",
    param_docs={
        "graph_mb": "size of the in-memory graph partition",
        "rank_vectors_mb": "size of the rank/score vectors",
        "iterations": "number of PageRank-style iterations",
        "gather_accesses_factor": "graph accesses per iteration, as a fraction of the graph",
        "zipf_alpha": "skew of the vertex-popularity distribution",
        "compute_time_per_page_s": "pure CPU time modelled per accessed page",
        "load_cost_factor": "CPU multiplier while loading the graph",
        "burst_pages": "pages per access burst (one WorkloadStep)",
    },
    bounds={
        "graph_mb": "> 0", "rank_vectors_mb": "> 0", "iterations": "> 0",
        "gather_accesses_factor": "> 0", "zipf_alpha": "> 0",
        "compute_time_per_page_s": ">= 0", "load_cost_factor": "> 0",
        "burst_pages": ">= 1",
    },
)
class GraphAnalyticsWorkload(Workload):
    """Zipf-skewed iterative graph-processing model (PageRank-like)."""

    def __init__(
        self,
        *,
        units: MemoryUnits,
        rng: np.random.Generator,
        graph_mb: int = 600,
        rank_vectors_mb: int = 150,
        iterations: int = 8,
        gather_accesses_factor: float = 2.0,
        zipf_alpha: float = 0.9,
        compute_time_per_page_s: float = 4.5e-3,
        load_cost_factor: float = 2.5,
        burst_pages: int = 48,
    ) -> None:
        super().__init__(units=units, rng=rng)
        self._graph_mb = graph_mb
        self._ranks_mb = rank_vectors_mb
        self._iterations = iterations
        self._gather_factor = gather_accesses_factor
        self._alpha = zipf_alpha
        self._compute_per_page = compute_time_per_page_s
        # Edge-list parsing and CSR construction dominate the load phase, so
        # the in-memory graph grows at tens of MB/s rather than memcpy speed.
        self._load_cost_factor = load_cost_factor
        self._burst_pages = burst_pages

    # -- documentation helpers ---------------------------------------------------------
    def phases(self) -> Sequence[WorkloadPhase]:
        return (
            [WorkloadPhase("load-graph", "parse edges and build CSR structures")]
            + [
                WorkloadPhase(f"pagerank-{i}", "one rank-propagation iteration")
                for i in range(1, self._iterations + 1)
            ]
            + [WorkloadPhase("write-ranks", "emit the final rank vector")]
        )

    def peak_footprint_pages(self) -> int:
        return self._units.pages_from_mib(self._graph_mb + self._ranks_mb)

    # -- step generation ------------------------------------------------------------------
    def generate_steps(self) -> Iterator[WorkloadStep]:
        units = self._units
        graph_pages = units.pages_from_mib(self._graph_mb)
        rank_pages = units.pages_from_mib(self._ranks_mb)
        rank_base = graph_pages

        # Phase 1: build the in-memory graph — a fast allocation burst.
        load = sequential_pages(0, graph_pages)
        for burst in self._chunk(load, self._burst_pages):
            yield WorkloadStep(
                compute_time_s=self._compute_per_page * len(burst) * self._load_cost_factor,
                pages=burst,
                phase="load-graph",
            )
        ranks = sequential_pages(rank_base, rank_pages)
        for burst in self._chunk(ranks, self._burst_pages):
            yield WorkloadStep(
                compute_time_s=self._compute_per_page * len(burst) * self._load_cost_factor,
                pages=burst,
                phase="load-graph",
            )

        # Phase 2: PageRank iterations.
        for iteration in range(1, self._iterations + 1):
            phase = f"pagerank-{iteration}"
            # Sequential pass over the rank vectors (read old, write new).
            for burst in self._chunk(ranks, self._burst_pages):
                yield WorkloadStep(
                    compute_time_s=self._compute_per_page * len(burst),
                    pages=burst,
                    phase=phase,
                )
            # Skewed gather over the graph structure.
            gathers = int(graph_pages * self._gather_factor)
            gather = zipf_pages(0, graph_pages, gathers, alpha=self._alpha, rng=self._rng)
            for burst in self._chunk(gather, self._burst_pages):
                yield WorkloadStep(
                    compute_time_s=self._compute_per_page * len(burst),
                    pages=burst,
                    phase=phase,
                )

        # Phase 3: write out the ranks.
        for burst in self._chunk(ranks, self._burst_pages):
            yield WorkloadStep(
                compute_time_s=self._compute_per_page * len(burst) * 0.5,
                pages=burst,
                phase="write-ranks",
            )
