"""The built-in entries of every registry, pinned by name.

Tests and examples register entries of their own, so only the entries
the ``repro`` package defines count.  A change that drops or renames a
built-in scenario family, workload kind, tmem policy or cluster
coordinator fails here instead of shrinking a registry silently.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
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


def _fresh_interpreter(code: str) -> str:
    src = str(Path(repro.__file__).resolve().parent.parent)
    return subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        check=True, capture_output=True, text=True,
    ).stdout.strip()


#: How a fresh interpreter looks one entry up by name, and lists them.
_LOOKUP = {
    "scenario families": (
        "from repro.scenarios.registry import scenario_by_name as lookup",
        "from repro.scenarios.registry import available_scenarios as names",
    ),
    "workload kinds": (
        "from repro.workloads.registry import workload_class as lookup",
        "from repro.workloads.registry import available_workload_kinds as names",
    ),
    "policies": (
        "from repro.core.policy import POLICIES; lookup = POLICIES.lookup",
        "from repro.core.policy import available_policies as names",
    ),
    "coordinators": (
        "from repro.core.coordinator import COORDINATORS; lookup = COORDINATORS.lookup",
        "from repro.core.coordinator import available_coordinators as names",
    ),
}


@pytest.mark.parametrize("registry", sorted(BUILT_IN))
def test_built_ins_resolve_by_name_before_any_listing(registry):
    """Each built-in registers when first used: in a fresh interpreter
    every pinned name resolves by a lookup alone, and a cold listing
    returns the pinned names in order."""
    lookup, names = _LOOKUP[registry]
    expected = BUILT_IN[registry][1]
    code = f"{lookup}\nfor name in {expected!r}:\n    lookup(name)\nprint('ok')"
    assert _fresh_interpreter(code) == "ok"
    assert _fresh_interpreter(f"{names}\nprint(list(names()))") == str(expected)
