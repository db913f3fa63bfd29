"""The built-in entries of every registry, pinned by name.

Tests and examples register entries of their own, so only the entries
the ``repro`` package defines count.  A change that drops or renames a
built-in scenario family, workload kind, tmem policy or cluster
coordinator fails here instead of shrinking a registry silently.
"""

from __future__ import annotations

import pytest

from repro.core.coordinator import COORDINATORS
from repro.core.policy import POLICIES
from repro.scenarios.registry import registered_scenarios
from repro.workloads.registry import WORKLOADS


def _built_in(entries):
    """The sorted names in *entries* (name -> function or class) that
    the package defines."""
    return sorted(
        name for name, defined in entries.items()
        if defined.__module__.startswith("repro.")
    )


BUILT_IN = {
    "scenario families": (
        lambda: {name: e.factory for name, e in registered_scenarios().items()},
        [
            "bursty", "churn", "cluster", "contended", "failover", "faulty",
            "flaky", "hotnode", "many-vms", "migrate", "scenario-1",
            "scenario-2", "scenario-3", "shard", "usemem-scenario",
        ],
    ),
    "workload kinds": (
        lambda: WORKLOADS.classes,
        ["filescan", "graph-analytics", "in-memory-analytics", "trace",
         "usemem"],
    ),
    "policies": (
        lambda: POLICIES.classes,
        ["greedy", "reconf-static", "smart-alloc", "static-alloc"],
    ),
    "coordinators": (
        lambda: COORDINATORS.classes,
        ["equal-share", "pressure-prop", "spill-feedback"],
    ),
}


@pytest.mark.parametrize("registry", sorted(BUILT_IN))
def test_built_in_entries_are_pinned(registry):
    entries, expected = BUILT_IN[registry]
    assert _built_in(entries()) == expected
