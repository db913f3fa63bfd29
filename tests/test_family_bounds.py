"""The declared parameter bounds of every registry, from both sides.

The properties walk the live registries (scenario families, workload
kinds, tmem policies and cluster coordinators), so an entry registered
later is covered without editing this file.  For every int and float
parameter, a value drawn just inside the declared bound builds the
entry and lints clean; a value drawn just outside it raises the
registry's error naming the parameter and lints to one error at the
parameter's place in a document: ``params.<key>``,
``vms[0].jobs[0].params.<key>``, ``policy`` or ``cluster.coordinator``.
The name of a family spec built just inside builds that spec again.  The
nightly workflow runs them with ``--hypothesis-profile=nightly``.
"""

from __future__ import annotations

import importlib.util
import math
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.coordinator import COORDINATORS
from repro.core.policy import POLICIES, TmemPolicy, create_policy, register_policy
from repro.errors import PolicyError, ScenarioError, WorkloadError
from repro.params import Bound, ParameterInfo
from repro.scenarios.dsl import Document, DslError, compile_document
from repro.scenarios.dsl.compiler import lint_document
from repro.scenarios import registry
from repro.scenarios.registry import (
    register_scenario,
    registered_scenarios,
    scenario_by_name,
)
from repro.scenarios.spec import ScenarioSpec
from repro.sim.rng import RngFactory
from repro.units import SCENARIO_UNITS
from repro.workloads.registry import WORKLOADS

SCALE = 0.1
REPO_ROOT = Path(__file__).resolve().parent.parent
TRACE = str(REPO_ROOT / "examples" / "dsl" / "traces" / "usemem-small.jsonl")


def _family_document(name: str, key: str, value) -> dict:
    return {"family": name, "scale": SCALE, "params": {key: value}}


def _policy_document(name: str, key: str, value) -> dict:
    return {"family": "usemem-scenario", "scale": SCALE, "policy": f"{name}:{key}={value!r}"}


def _coordinator_document(name: str, key: str, value) -> dict:
    return {
        "family": "usemem-scenario",
        "scale": SCALE,
        "cluster": {"nodes": 2, "coordinator": f"{name}:{key}={value!r}"},
    }


#: Parameters a workload needs besides the drawn one: the trace to
#: replay, and a start_mb that any drawn max_mb reaches.
WORKLOAD_BASE = {"trace": {"path": TRACE}, "usemem": {"start_mb": 1}}


def _workload_params(name: str, key: str, value) -> dict:
    return {**WORKLOAD_BASE.get(name, {}), key: value}


def _workload_document(name: str, key: str, value) -> dict:
    job = {"kind": name, "params": _workload_params(name, key, value)}
    return {
        "scenario": "bounds",
        "tmem_mb": 64,
        "vms": [{"name": "VM1", "ram_mb": 64, "jobs": [job]}],
    }


def _build_workload(name: str, key: str, value):
    rng = RngFactory(1).stream("bounds")
    params = _workload_params(name, key, value)
    return WORKLOADS.lookup(name)(units=SCENARIO_UNITS, rng=rng, **params)


class Registry:
    """How the properties build, and document, one registry's entries."""

    def __init__(self, label, entries, build, document, path, error) -> None:
        self.label = label
        #: ``(name, parameter infos)`` of every entry.
        self.entries = entries
        #: ``build(name, key, value)`` builds the entry with one value set.
        self.build = build
        #: ``document(name, key, value)``: the document data setting it.
        self.document = document
        #: ``path(key)``: where the document's diagnostic sits.
        self.path = path
        #: What ``build`` raises for a bad value.
        self.error = error

    def __repr__(self) -> str:
        return self.label


def _class_entries(classes):
    return [(name, classes.parameter_info(name)) for name in classes.names()]


REGISTRIES = [
    Registry(
        "family",
        [(name, entry.parameter_info()) for name, entry in sorted(registered_scenarios().items())],
        lambda name, key, value: scenario_by_name(f"{name}:{key}={value!r}", scale=SCALE),
        _family_document,
        lambda key: f"params.{key}",
        ScenarioError,
    ),
    Registry(
        "workload",
        _class_entries(WORKLOADS),
        _build_workload,
        _workload_document,
        lambda key: f"vms[0].jobs[0].params.{key}",
        WorkloadError,
    ),
    Registry(
        "policy",
        _class_entries(POLICIES),
        lambda name, key, value: create_policy(f"{name}:{key}={value!r}"),
        _policy_document,
        lambda key: "policy",
        PolicyError,
    ),
    Registry(
        "coordinator",
        _class_entries(COORDINATORS),
        lambda name, key, value: COORDINATORS.create(f"{name}:{key}={value!r}"),
        _coordinator_document,
        lambda key: "cluster.coordinator",
        PolicyError,
    ),
]

#: Every (registry, entry, parameter) triple the registries declare.
ALL_PARAMETERS = [
    pytest.param(reg, name, info, id=f"{reg.label}:{name}.{info.name}")
    for reg in REGISTRIES
    for name, infos in reg.entries
    for info in infos
]

#: The int and float ones, whose values the properties draw.
PARAMETERS = [
    case for case in ALL_PARAMETERS
    if case.values[2].checked_type in ("int", "float")
]

#: The scenario families' parameters, for the spec-name property.
FAMILY_PARAMETERS = [
    pytest.param(name, info, id=f"{name}.{info.name}")
    for case in PARAMETERS
    for reg, name, info in [case.values]
    if reg.label == "family"
]


def _int_range(bound: Bound):
    """The first and last integer inside *bound* (``inf`` when open)."""
    first = math.floor(bound.low) + 1 if bound.open_low else math.ceil(bound.low)
    if bound.high == math.inf:
        return first, math.inf
    last = math.ceil(bound.high) - 1 if bound.open_high else math.floor(bound.high)
    return first, last


def just_inside(info: ParameterInfo):
    """Values of *info*'s type within 2 (ints) or 1 (floats) of an end."""
    bound = info.bound
    if info.checked_type == "int":
        first, last = _int_range(bound)
        near = [st.integers(first, min(first + 2, last))]
        if last != math.inf:
            near.append(st.integers(max(first, last - 2), last))
    else:
        low = math.nextafter(bound.low, math.inf) if bound.open_low else bound.low
        high = math.nextafter(bound.high, -math.inf) if bound.open_high else bound.high
        near = [st.floats(low, min(low + 1, high))]
        if bound.high != math.inf:
            near.append(st.floats(max(low, high - 1), high))
    return st.one_of(near)


def just_outside(info: ParameterInfo):
    """Values of *info*'s type within 3 (ints) or 1 (floats) past an end."""
    bound = info.bound
    if info.checked_type == "int":
        first, last = _int_range(bound)
        near = [st.integers(first - 3, first - 1)]
        if last != math.inf:
            near.append(st.integers(last + 1, last + 3))
    else:
        # nextafter, not exclude_max: -0.0 is not below a bound of 0.
        below = bound.low if bound.open_low else math.nextafter(bound.low, -math.inf)
        near = [st.floats(bound.low - 1, below)]
        if bound.high != math.inf:
            above = bound.high if bound.open_high else math.nextafter(bound.high, math.inf)
            near.append(st.floats(above, bound.high + 1))
    return st.one_of(near)


def lint(data: dict) -> list:
    """The diagnostics of the document *data*."""
    return lint_document(Document(data, filename="<bounds>"))


def compile_family(family: str, key: str, value) -> list:
    """The diagnostics of a family-mode document setting *key*."""
    doc = Document(_family_document(family, key, value), filename="<bounds>")
    try:
        compile_document(doc)
    except DslError as exc:
        return list(exc.diagnostics)
    return []


@pytest.mark.parametrize("reg,name,info", ALL_PARAMETERS)
def test_every_parameter_has_a_doc_and_every_number_a_bound(reg, name, info):
    assert info.doc, f"{reg.label} {name!r} parameter {info.name!r} has no doc"
    if info.checked_type in ("int", "float"):
        assert info.bound is not None, f"{name}.{info.name} has no bound"
    if reg.label == "family":
        assert info.type in ("int", "float")


def test_every_registry_is_walked():
    labels = {case.values[0].label for case in PARAMETERS}
    assert labels == {"family", "workload", "policy", "coordinator"}


@pytest.mark.parametrize("reg,name,info", PARAMETERS)
@given(data=st.data())
def test_a_value_just_inside_the_bound_builds_and_lints_clean(reg, name, info, data):
    value = data.draw(just_inside(info))
    assert reg.build(name, info.name, value) is not None
    assert lint(reg.document(name, info.name, value)) == []


@pytest.mark.parametrize("family,info", FAMILY_PARAMETERS)
@given(data=st.data())
def test_a_spec_name_builds_its_own_spec(family, info, data):
    """A spec's name carries every parameter exactly, floats included, so
    two configurations never share a name."""
    value = data.draw(just_inside(info))
    spec = scenario_by_name(f"{family}:{info.name}={value!r}", scale=SCALE)
    assert scenario_by_name(spec.name, scale=SCALE) == spec


@pytest.mark.parametrize("value", [1234567.0, 1234567.5, 12.3456789])
def test_the_name_of_a_document_spec_builds_that_spec(value):
    """A document passes floats to the family as they are, however far
    from the bound; the name spells an integral one as the int that a
    spec string reads it as."""
    doc = Document(
        {"family": "churn", "scale": SCALE, "params": {"wave_s": value}},
        filename="<names>",
    )
    spec = compile_document(doc).spec
    assert scenario_by_name(spec.name, scale=SCALE) == spec


@pytest.mark.parametrize("reg,name,info", PARAMETERS)
@given(data=st.data())
def test_a_value_just_outside_the_bound_is_rejected_at_its_key(reg, name, info, data):
    value = data.draw(just_outside(info))
    with pytest.raises(reg.error, match=f"parameter '{info.name}': expected a value "):
        reg.build(name, info.name, value)
    (diag,) = lint(reg.document(name, info.name, value))
    assert diag.is_error
    assert diag.path == reg.path(info.name)
    if reg.label in ("family", "workload"):
        assert diag.message.startswith("expected a value ")
    else:
        assert f"parameter '{info.name}': expected a value " in diag.message
    if reg.label == "family":
        assert compile_family(name, info.name, value) == [diag]


@pytest.mark.parametrize("bound", [
    ">=2", "> 0", "[1, 3]", "[-1.5, 2]", ">= -4", "(0, 100]", "[0, 1)", "[2, 2]",
])
def test_well_formed_bounds_parse(bound):
    assert Bound.parse(bound).text == bound


@pytest.mark.parametrize("bound,inside,outside", [
    ("(0, 100]", [1e-9, 100], [0, 100.5]),
    ("[0, 1)", [0, 0.999], [-1e-9, 1]),
    ("[1, 3]", [1, 3], [0, 4]),
    ("> 0", [1e-300, 5], [0, -1]),
])
def test_an_open_end_excludes_its_value(bound, inside, outside):
    parsed = Bound.parse(bound)
    assert [parsed.error(value) for value in inside] == [None, None]
    assert all(parsed.error(value) for value in outside)


@pytest.mark.parametrize("bound", [
    "", "> x", "[3, 1]", "< 4", ">= 1 ", "1..3", "(1, 1]", "[1, 1)", "[1, 3", "1, 3",
])
def test_a_malformed_bound_fails_at_registration(bound):
    with pytest.raises(ScenarioError, match="malformed bound"):
        @register_scenario("bounds-test-family", bounds={"n": bound})
        def family(*, scale: float = 1.0, n: int = 1) -> ScenarioSpec:
            raise AssertionError("never built")
    assert "bounds-test-family" not in registered_scenarios()


@pytest.mark.parametrize("bounds", [{"m": ">= 1"}, {"label": ">= 1"}])
def test_a_bound_on_no_numeric_parameter_fails_at_registration(bounds):
    with pytest.raises(ScenarioError, match="not an int or float parameter"):
        @register_scenario("bounds-test-family", bounds=bounds)
        def family(*, scale: float = 1.0, n: int = 1, label: str = "") -> ScenarioSpec:
            raise AssertionError("never built")
    assert "bounds-test-family" not in registered_scenarios()


def test_an_optional_int_takes_none_unchecked_and_ints_within_its_bound():
    info = ParameterInfo("pages", "Optional[int]", None, bound=Bound.parse(">= 0"))
    assert info.value_error(None) is None
    assert info.value_error(3) is None
    assert info.value_error(2.5) == "expected an integer, got 2.5"
    assert info.value_error(-1) == "expected a value >= 0, got -1"


def test_direct_factory_calls_share_the_check():
    from repro.scenarios import contended_scenario, many_vms_scenario

    with pytest.raises(ScenarioError, match="parameter 'n': expected a value >= 1"):
        many_vms_scenario(n=0)
    with pytest.raises(ScenarioError, match="parameter 'nodes': expected an integer"):
        contended_scenario(nodes=2.5)
    with pytest.raises(ScenarioError, match="has no parameter 'nodez'"):
        contended_scenario(nodez=2)


def test_direct_construction_shares_the_check():
    from repro.core.coordinator import SpillFeedbackCoordinator
    from repro.core.policies import SmartAllocPolicy
    from repro.workloads import GraphAnalyticsWorkload

    with pytest.raises(PolicyError, match="'percent': expected a value in"):
        SmartAllocPolicy(0)
    # A positional argument is checked under its name, also on the way
    # through a subclass's super().__init__.
    with pytest.raises(PolicyError, match="'spill-feedback' parameter 'percent'"):
        SpillFeedbackCoordinator(150)
    with pytest.raises(WorkloadError, match="'iterations': expected a value > 0"):
        GraphAnalyticsWorkload(
            units=SCENARIO_UNITS, rng=RngFactory(1).stream("g"), iterations=0
        )


def test_a_constructor_taking_kwargs_stays_unchecked():
    name = "bounds-test-open-policy"

    class Open(TmemPolicy):
        def __init__(self, percent: float = 1.0, **extra) -> None:
            self.extra = extra

        def decide(self, memstats):
            raise AssertionError("never run")

    register_policy(name, bounds={"percent": "> 0"})(Open)
    try:
        assert POLICIES.errors(name, {"percent": -1, "anything": 2}) == []
        assert create_policy(f"{name}:anything=2").extra == {"anything": 2}
    finally:
        POLICIES.classes.pop(name)


def test_the_docs_gate_fails_on_a_family_parameter_without_a_bound():
    script = Path(__file__).resolve().parent.parent / "scripts" / "gen_scenario_docs.py"
    loader = importlib.util.spec_from_file_location("gen_scenario_docs", script)
    docs = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(docs)

    @register_scenario("bounds-test-family", param_docs={"n": "a count"})
    def family(*, scale: float = 1.0, n: int = 1) -> ScenarioSpec:
        raise AssertionError("never built")

    try:
        with pytest.raises(SystemExit, match="'bounds-test-family' parameter 'n'"):
            docs.main(["--check"])
    finally:
        registry._REGISTRY.pop("bounds-test-family", None)


def test_the_docs_gate_fails_on_a_policy_parameter_without_a_bound():
    script = REPO_ROOT / "scripts" / "gen_scenario_docs.py"
    loader = importlib.util.spec_from_file_location("gen_scenario_docs", script)
    docs = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(docs)
    name = "bounds-test-policy"

    class Unbounded(TmemPolicy):
        def __init__(self, weight: float = 1.0) -> None:
            self.weight = weight

        def decide(self, memstats):
            raise AssertionError("never run")

    register_policy(name, param_docs={"weight": "a weight"})(Unbounded)
    try:
        with pytest.raises(SystemExit, match=f"policy '{name}' parameter 'weight'"):
            docs.main(["--check"])
    finally:
        POLICIES.classes.pop(name)
