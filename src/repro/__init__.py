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

``import repro`` loads what building and running a scenario needs.  The
names re-exported from :mod:`repro.experiments` (``run_sweep``,
``SweepSpec``, ...) and :mod:`repro.analysis` (``jain_fairness``,
``render_runtime_table``, ...) load their package on first access, so a
run pays neither for the sweep service's ``http.server`` and
``urllib.request`` nor for the analysis code.

Quickstart
----------

>>> from repro import scenario_1, run_scenario
>>> spec = scenario_1(scale=0.25)           # small, fast configuration
>>> greedy = run_scenario(spec, "greedy", seed=1)
>>> smart = run_scenario(spec, "smart-alloc:P=2", seed=1)
>>> isinstance(smart.mean_runtime_s(), float)
True
"""

import importlib

from .config import (
    DiskConfig,
    GuestConfig,
    SamplingConfig,
    SimulationConfig,
    TmemConfig,
)
from .units import (
    GIB,
    KIB,
    MIB,
    XEN_PAGE_BYTES,
    DEFAULT_UNITS,
    SCENARIO_UNITS,
    MemoryUnits,
)
from .errors import (
    ReproError,
    ConfigurationError,
    SimulationError,
    TmemError,
    PolicyError,
    ScenarioError,
    WorkloadError,
    ExperimentError,
)
from .core import (
    MemoryManager,
    TmemPolicy,
    PolicyDecision,
    TargetVector,
    GreedyPolicy,
    StaticAllocPolicy,
    ReconfStaticPolicy,
    SmartAllocPolicy,
    create_policy,
    available_policies,
    register_policy,
)
from .hypervisor import Hypervisor
from .guest import VirtualMachine
from .sim import SimulationEngine, TraceRecorder
from .scenarios import (
    ScenarioSpec,
    VMSpec,
    WorkloadSpec,
    NodeSpec,
    ClusterTopology,
    ScenarioRunner,
    ScenarioResult,
    run_scenario,
    scenario_1,
    scenario_2,
    scenario_3,
    usemem_scenario,
    many_vms_scenario,
    churn_scenario,
    bursty_scenario,
    cluster_scenario,
    hotnode_scenario,
    all_scenarios,
    available_scenarios,
    scenario_by_name,
    register_scenario,
    PAPER_POLICIES,
)
from .cluster import Cluster, Node, clusterize
from .workloads import (
    UsememWorkload,
    InMemoryAnalyticsWorkload,
    GraphAnalyticsWorkload,
    register_workload_kind,
    available_workload_kinds,
)
#: Names re-exported from a subpackage that loads on first access
#: (PEP 562), mapped to that subpackage.
_LAZY = {
    "ExperimentPoint": "experiments",
    "SweepSpec": "experiments",
    "SerialBackend": "experiments",
    "ProcessPoolBackend": "experiments",
    "ResultStore": "experiments",
    "SweepOutcome": "experiments",
    "run_sweep": "experiments",
    "jain_fairness": "analysis",
    "improvement_percent": "analysis",
    "runtime_figure": "analysis",
    "tmem_usage_figure": "analysis",
    "render_runtime_table": "analysis",
    "aggregate_sweep": "analysis",
    "render_aggregate_table": "analysis",
}


def __getattr__(name: str):
    package = _LAZY.get(name)
    if package is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{package}"), name)
    globals()[name] = value
    return value


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
