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

from .._lazy import lazy_getattr

#: Every re-exported name, mapped to the submodule that defines it and
#: loads on first access (PEP 562).
_LAZY = {
    **dict.fromkeys(("Workload", "WorkloadStep", "WorkloadPhase"), "base"),
    **dict.fromkeys(
        ("sequential_pages", "zipf_pages", "working_set_pages"), "access_patterns"
    ),
    "UsememWorkload": "usemem",
    "InMemoryAnalyticsWorkload": "inmemory_analytics",
    "GraphAnalyticsWorkload": "graph_analytics",
    **dict.fromkeys(("TraceWorkload", "dump_trace_steps", "load_trace_steps"), "trace"),
    "FileScanWorkload": "filescan",
    **dict.fromkeys(
        ("WORKLOAD_REGISTRY", "available_workload_kinds", "register_workload_kind",
         "workload_class"),
        "registry",
    ),
}

__getattr__ = lazy_getattr(__name__, _LAZY)

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
