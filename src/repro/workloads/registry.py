"""Central registry of workload kinds.

Scenario specs reference workloads by a string ``kind`` (the value of
:attr:`~repro.scenarios.spec.WorkloadSpec.kind`).  :data:`WORKLOADS`
owns the single mapping from those kind strings to workload classes;
the scenario runner, the DSL compiler, the CLI (``smartmem list``,
``trace record``) and user code registering custom workloads all share
it, so a :func:`register_workload_kind` call is visible everywhere at
once.  Each workload module registers its own class, with the docs and
bounds of its constructor parameters.
"""

from __future__ import annotations

from typing import Mapping

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
WORKLOADS = SpecRegistry(
    Workload, "workload", WorkloadError, ScenarioError, lookup_noun="workload kind"
)

#: The one shared kind -> class mapping.  Mutated in place by
#: :func:`register_workload_kind` so every module holding a reference
#: observes new registrations.
WORKLOAD_REGISTRY = WORKLOADS.classes

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
