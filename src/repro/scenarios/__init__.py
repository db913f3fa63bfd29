"""Benchmark scenarios (Table II of the paper) and the scenario runner.

The paper's four scenarios live in :mod:`repro.scenarios.library` and
the parametric families in :mod:`repro.scenarios.families`; both
register themselves with :mod:`repro.scenarios.registry`, which imports
the families only when a name misses the paper scenarios or when the
registry is listed.  Every name below loads its submodule on first
access, so a run of a paper scenario never loads the families, and a
single host never loads the cluster-only modules (the sharded runner,
fault injection, remote tmem, the interconnect and the coordinators).
"""

from .._lazy import lazy_getattr

#: Every re-exported name, mapped to the submodule that defines it and
#: loads on first access (PEP 562).
_LAZY = {
    **dict.fromkeys(
        ("VMSpec", "WorkloadSpec", "ScenarioSpec", "PhaseTrigger", "NodeSpec",
         "NodeFailure", "VmMigration", "ClusterTopology"),
        "spec",
    ),
    **dict.fromkeys(
        ("ScenarioEntry", "register_scenario", "parse_scenario_spec", "scenario_by_name",
         "available_scenarios", "paper_scenario_names", "registered_scenarios",
         "all_scenarios"),
        "registry",
    ),
    **dict.fromkeys(
        ("scenario_1", "scenario_2", "scenario_3", "usemem_scenario", "PAPER_POLICIES"),
        "library",
    ),
    **dict.fromkeys(
        ("many_vms_scenario", "churn_scenario", "bursty_scenario", "cluster_scenario",
         "hotnode_scenario", "contended_scenario", "failover_scenario",
         "migrate_scenario"),
        "families",
    ),
    **dict.fromkeys(("RunResult", "VmResult", "ScenarioResult"), "results"),
    **dict.fromkeys(("ScenarioRunner", "run_scenario", "register_workload_kind"), "runner"),
}

__getattr__ = lazy_getattr(__name__, _LAZY)

__all__ = [
    "VMSpec",
    "WorkloadSpec",
    "ScenarioSpec",
    "PhaseTrigger",
    "NodeSpec",
    "NodeFailure",
    "VmMigration",
    "ClusterTopology",
    "ScenarioEntry",
    "register_scenario",
    "parse_scenario_spec",
    "scenario_by_name",
    "available_scenarios",
    "paper_scenario_names",
    "registered_scenarios",
    "scenario_1",
    "scenario_2",
    "scenario_3",
    "usemem_scenario",
    "many_vms_scenario",
    "churn_scenario",
    "bursty_scenario",
    "cluster_scenario",
    "hotnode_scenario",
    "contended_scenario",
    "failover_scenario",
    "migrate_scenario",
    "all_scenarios",
    "PAPER_POLICIES",
    "RunResult",
    "VmResult",
    "ScenarioResult",
    "ScenarioRunner",
    "run_scenario",
    "register_workload_kind",
]
