"""Central registry of workload kinds.

Scenario specs reference workloads by a string ``kind`` (the value of
:attr:`~repro.scenarios.spec.WorkloadSpec.kind`).  :data:`WORKLOADS`
owns the single mapping from those kind strings to workload classes;
the scenario runner, the DSL compiler, the CLI (``smartmem list``,
``trace record``) and user code registering custom workloads all share
it, so a :func:`register_workload_kind` call is visible everywhere at
once.  Each workload module registers its own class, with the docs and
bounds of its constructor parameters, when it is imported: a lookup of a
built-in kind imports that kind's module alone, and
``WORKLOAD_REGISTRY`` (the shared kind -> class dict, mutated in place
by every registration) imports them all.
"""

from __future__ import annotations

from typing import Dict, Mapping

from ..errors import ScenarioError, WorkloadError
from ..params import SpecRegistry
from .base import Workload

__all__ = [
    "WORKLOADS",
    "WORKLOAD_REGISTRY",
    "register_workload_kind",
    "workload_class",
    "available_workload_kinds",
]

#: Every workload kind.  Bad parameters raise :class:`WorkloadError`;
#: unknown kinds and bad registrations raise :class:`ScenarioError`.
#: Each built-in kind's module registers it on first use.
WORKLOADS = SpecRegistry(
    Workload, "workload", WorkloadError, ScenarioError, lookup_noun="workload kind",
    built_ins={
        "usemem": "repro.workloads.usemem",
        "in-memory-analytics": "repro.workloads.inmemory_analytics",
        "graph-analytics": "repro.workloads.graph_analytics",
        "trace": "repro.workloads.trace",
        "filescan": "repro.workloads.filescan",
    },
)


#: The one shared kind -> class dict, ``WORKLOADS.classes``, mutated in
#: place by every registration.  Reading it is a listing, which imports
#: every built-in kind, so the module ``__getattr__`` serves it (PEP 562).
WORKLOAD_REGISTRY: Dict[str, type]


def __getattr__(name: str) -> Dict[str, type]:
    if name == "WORKLOAD_REGISTRY":
        return WORKLOADS.classes
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


#: Look up the workload class registered under a kind.
workload_class = WORKLOADS.lookup

#: Names of every registered workload kind, sorted.
available_workload_kinds = WORKLOADS.names


def register_workload_kind(
    kind: str,
    cls: type,
    *,
    param_docs: Mapping[str, str] = {},
    bounds: Mapping[str, str] = {},
) -> None:
    """Register a workload class for use in scenario specs, with the docs
    and bounds of its constructor parameters."""
    WORKLOADS.register(kind, param_docs=param_docs, bounds=bounds)(cls)
