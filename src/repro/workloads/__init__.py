"""Workload models.

A workload is a deterministic generator of *steps*; each step carries an
amount of pure compute time plus a burst of page accesses (and optionally
a set of pages to free).  The guest kernel turns those accesses into
resident hits, tmem operations and disk I/O, which is how a workload's
running time becomes sensitive to the tmem policy.

Three workloads reproduce the paper's benchmarks:

* :class:`~repro.workloads.usemem.UsememWorkload` — the synthetic
  micro-benchmark described in Section IV (incremental 128 MB
  allocations, linear sweeps, up to 1 GB).
* :class:`~repro.workloads.inmemory_analytics.InMemoryAnalyticsWorkload`
  — a stand-in for CloudSuite in-memory-analytics (ALS recommendation on
  the MovieLens dataset): ramp-up to a large heap, then iterative passes
  with high re-reference locality.
* :class:`~repro.workloads.graph_analytics.GraphAnalyticsWorkload` — a
  stand-in for CloudSuite graph-analytics (PageRank on a Twitter follower
  graph): fast allocation burst, then irregular (Zipf-skewed) accesses.
"""

from .base import Workload, WorkloadStep, WorkloadPhase
from .access_patterns import (
    sequential_pages,
    zipf_pages,
    working_set_pages,
)
from .usemem import UsememWorkload
from .inmemory_analytics import InMemoryAnalyticsWorkload
from .graph_analytics import GraphAnalyticsWorkload
from .trace import TraceWorkload, dump_trace_steps, load_trace_steps
from .filescan import FileScanWorkload
from .registry import (
    WORKLOAD_REGISTRY,
    available_workload_kinds,
    register_workload_kind,
    workload_class,
)

__all__ = [
    "Workload",
    "WorkloadStep",
    "WorkloadPhase",
    "sequential_pages",
    "zipf_pages",
    "working_set_pages",
    "UsememWorkload",
    "InMemoryAnalyticsWorkload",
    "GraphAnalyticsWorkload",
    "TraceWorkload",
    "FileScanWorkload",
    "load_trace_steps",
    "dump_trace_steps",
    "WORKLOAD_REGISTRY",
    "register_workload_kind",
    "workload_class",
    "available_workload_kinds",
]
