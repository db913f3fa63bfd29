"""SmarTmem reproduction: intelligent Transcendent Memory management.

This package is a simulation-based reproduction of *SmarTmem: Intelligent
Management of Transcendent Memory in a Virtualized Server* (Garrido,
Nishtala, Carpenter — 2019).  It provides:

* a discrete-event model of a virtualized node with a Xen-like tmem
  backend (:mod:`repro.hypervisor`), guest kernels with frontswap /
  cleancache and an LRU/CLOCK reclaim path (:mod:`repro.guest`), a shared
  swap disk (:mod:`repro.devices`), and the netlink/TKM control plane
  (:mod:`repro.channels`, :mod:`repro.guest.tkm`);
* the SmarTmem Memory Manager and the paper's tmem policies — greedy,
  static-alloc, reconf-static, smart-alloc(P) — in :mod:`repro.core`;
* workload models reproducing the paper's benchmarks (usemem, CloudSuite
  in-memory-analytics and graph-analytics stand-ins) in
  :mod:`repro.workloads`;
* the four evaluation scenarios (Table II) and a scenario runner in
  :mod:`repro.scenarios`;
* metrics, figure/table data extraction and text reports in
  :mod:`repro.analysis`;
* parameter sweeps, their result archive and the distributed sweep
  service in :mod:`repro.experiments`.

``import repro`` loads numpy and no subpackage.  Every name below
loads the module that defines it on first access (PEP 562), and the
registries load each built-in scenario family, workload kind and policy
when it is first used, so a run imports only the code it executes: a
single host never loads the cluster-only modules, and no run pays for
the sweep service's ``http.server`` and ``urllib.request`` or for the
analysis code.  Imported before numpy, ``repro`` loads numpy with
``OPENBLAS_NUM_THREADS=1`` (then restores the environment): the
simulator makes no BLAS call, so its process starts no BLAS thread pool
and forks its shard workers single-threaded.

Quickstart
----------

>>> from repro import scenario_1, run_scenario
>>> spec = scenario_1(scale=0.25)           # small, fast configuration
>>> greedy = run_scenario(spec, "greedy", seed=1)
>>> smart = run_scenario(spec, "smart-alloc:P=2", seed=1)
>>> isinstance(smart.mean_runtime_s(), float)
True
"""

import os as _os
import sys as _sys

# The simulator makes no BLAS call, yet numpy's OpenBLAS starts a thread
# pool when it loads; with one thread, no pool starts and shard workers
# fork from a single-threaded process.  A caller who set the variable or
# imported numpy first keeps its pool.
if "numpy" not in _sys.modules and "OPENBLAS_NUM_THREADS" not in _os.environ:
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]
    del numpy

from ._lazy import lazy_getattr

#: Every re-exported name, mapped to the submodule that defines it and
#: loads on first access (PEP 562).
_LAZY = {
    **dict.fromkeys(
        ("SimulationConfig", "DiskConfig", "TmemConfig", "GuestConfig", "SamplingConfig"),
        "config",
    ),
    **dict.fromkeys(
        ("MemoryUnits", "DEFAULT_UNITS", "SCENARIO_UNITS", "KIB", "MIB", "GIB",
         "XEN_PAGE_BYTES"),
        "units",
    ),
    **dict.fromkeys(
        ("ReproError", "ConfigurationError", "SimulationError", "TmemError",
         "PolicyError", "ScenarioError", "WorkloadError", "ExperimentError"),
        "errors",
    ),
    "MemoryManager": "core.manager",
    **dict.fromkeys(
        ("TmemPolicy", "PolicyDecision", "create_policy", "available_policies",
         "register_policy"),
        "core.policy",
    ),
    "TargetVector": "core.stats",
    "GreedyPolicy": "core.policies.greedy",
    "StaticAllocPolicy": "core.policies.static_alloc",
    "ReconfStaticPolicy": "core.policies.reconf_static",
    "SmartAllocPolicy": "core.policies.smart_alloc",
    "Hypervisor": "hypervisor.xen",
    "VirtualMachine": "guest.vm",
    "SimulationEngine": "sim.engine",
    "TraceRecorder": "sim.trace",
    **dict.fromkeys(
        ("ScenarioSpec", "VMSpec", "WorkloadSpec", "NodeSpec", "ClusterTopology"),
        "scenarios.spec",
    ),
    "ScenarioRunner": "scenarios.runner",
    "run_scenario": "scenarios.runner",
    "ScenarioResult": "scenarios.results",
    **dict.fromkeys(
        ("scenario_1", "scenario_2", "scenario_3", "usemem_scenario", "PAPER_POLICIES"),
        "scenarios.library",
    ),
    **dict.fromkeys(
        ("many_vms_scenario", "churn_scenario", "bursty_scenario", "cluster_scenario",
         "hotnode_scenario"),
        "scenarios.families",
    ),
    **dict.fromkeys(
        ("all_scenarios", "available_scenarios", "scenario_by_name", "register_scenario"),
        "scenarios.registry",
    ),
    "Cluster": "cluster.cluster",
    "clusterize": "cluster.cluster",
    "Node": "cluster.node",
    "UsememWorkload": "workloads.usemem",
    "InMemoryAnalyticsWorkload": "workloads.inmemory_analytics",
    "GraphAnalyticsWorkload": "workloads.graph_analytics",
    "register_workload_kind": "workloads.registry",
    "available_workload_kinds": "workloads.registry",
    **dict.fromkeys(
        ("ExperimentPoint", "SweepSpec", "SerialBackend", "ProcessPoolBackend",
         "ResultStore", "SweepOutcome", "run_sweep"),
        "experiments",
    ),
    **dict.fromkeys(
        ("jain_fairness", "improvement_percent", "runtime_figure", "tmem_usage_figure",
         "render_runtime_table", "aggregate_sweep", "render_aggregate_table"),
        "analysis",
    ),
}

__getattr__ = lazy_getattr(__name__, _LAZY)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # configuration
    "SimulationConfig",
    "DiskConfig",
    "TmemConfig",
    "GuestConfig",
    "SamplingConfig",
    "MemoryUnits",
    "DEFAULT_UNITS",
    "SCENARIO_UNITS",
    "KIB",
    "MIB",
    "GIB",
    "XEN_PAGE_BYTES",
    # errors
    "ReproError",
    "ConfigurationError",
    "SimulationError",
    "TmemError",
    "PolicyError",
    "ScenarioError",
    "WorkloadError",
    "ExperimentError",
    # core
    "MemoryManager",
    "TmemPolicy",
    "PolicyDecision",
    "TargetVector",
    "GreedyPolicy",
    "StaticAllocPolicy",
    "ReconfStaticPolicy",
    "SmartAllocPolicy",
    "create_policy",
    "available_policies",
    "register_policy",
    # system components
    "Hypervisor",
    "VirtualMachine",
    "SimulationEngine",
    "TraceRecorder",
    # scenarios
    "ScenarioSpec",
    "VMSpec",
    "WorkloadSpec",
    "NodeSpec",
    "ClusterTopology",
    "ScenarioRunner",
    "ScenarioResult",
    "run_scenario",
    "scenario_1",
    "scenario_2",
    "scenario_3",
    "usemem_scenario",
    "many_vms_scenario",
    "churn_scenario",
    "bursty_scenario",
    "cluster_scenario",
    "hotnode_scenario",
    "all_scenarios",
    "available_scenarios",
    "scenario_by_name",
    "register_scenario",
    "PAPER_POLICIES",
    # cluster
    "Cluster",
    "Node",
    "clusterize",
    # workloads
    "UsememWorkload",
    "InMemoryAnalyticsWorkload",
    "GraphAnalyticsWorkload",
    "register_workload_kind",
    "available_workload_kinds",
    # experiments
    "ExperimentPoint",
    "SweepSpec",
    "SerialBackend",
    "ProcessPoolBackend",
    "ResultStore",
    "SweepOutcome",
    "run_sweep",
    # analysis
    "jain_fairness",
    "improvement_percent",
    "runtime_figure",
    "tmem_usage_figure",
    "render_runtime_table",
    "aggregate_sweep",
    "render_aggregate_table",
]
