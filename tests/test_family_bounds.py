"""The declared parameter bounds of every scenario family, from both sides.

The properties walk the registry, so a family registered later is
covered without editing this file.  For every family and parameter, a
value drawn just inside the declared bound builds a spec; a value drawn
just outside it raises a :class:`ScenarioError` naming the parameter
through ``scenario_by_name`` and compiles to an error at
``params.<key>``; the name of a spec built just inside builds that spec
again.  The nightly workflow runs them with
``--hypothesis-profile=nightly``.
"""

from __future__ import annotations

import importlib.util
import math
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ScenarioError
from repro.params import Bound, ParameterInfo
from repro.scenarios.dsl import Document, DslError, compile_document
from repro.scenarios import registry
from repro.scenarios.registry import (
    register_scenario,
    registered_scenarios,
    scenario_by_name,
)
from repro.scenarios.spec import ScenarioSpec

SCALE = 0.1

#: Every (family, parameter) pair the registry declares.
PARAMETERS = [
    pytest.param(family, info, id=f"{family}.{info.name}")
    for family, entry in sorted(registered_scenarios().items())
    for info in entry.parameter_info()
]


def _int_range(bound: Bound):
    """The first and last integer inside *bound* (``inf`` when open)."""
    first = math.floor(bound.low) + 1 if bound.open_low else math.ceil(bound.low)
    return first, bound.high if bound.high == math.inf else math.floor(bound.high)


def just_inside(info: ParameterInfo):
    """Values of *info*'s type within 2 (ints) or 1 (floats) of an end."""
    bound = info.bound
    if info.type == "int":
        first, last = _int_range(bound)
        near = [st.integers(first, min(first + 2, last))]
        if last != math.inf:
            near.append(st.integers(max(first, last - 2), last))
    else:
        low = math.nextafter(bound.low, math.inf) if bound.open_low else bound.low
        near = [st.floats(low, min(low + 1, bound.high))]
        if bound.high != math.inf:
            near.append(st.floats(max(low, bound.high - 1), bound.high))
    return st.one_of(near)


def just_outside(info: ParameterInfo):
    """Values of *info*'s type within 3 (ints) or 1 (floats) past an end."""
    bound = info.bound
    if info.type == "int":
        first, last = _int_range(bound)
        near = [st.integers(first - 3, first - 1)]
        if last != math.inf:
            near.append(st.integers(last + 1, last + 3))
    else:
        # nextafter, not exclude_max: -0.0 is not below a bound of 0.
        below = bound.low if bound.open_low else math.nextafter(bound.low, -math.inf)
        near = [st.floats(bound.low - 1, below)]
        if bound.high != math.inf:
            near.append(st.floats(math.nextafter(bound.high, math.inf), bound.high + 1))
    return st.one_of(near)


def compile_family(family: str, key: str, value) -> list:
    """The diagnostics of a family-mode document setting *key*."""
    doc = Document(
        {"family": family, "scale": SCALE, "params": {key: value}},
        filename="<bounds>",
    )
    try:
        compile_document(doc)
    except DslError as exc:
        return list(exc.diagnostics)
    return []


def test_every_family_parameter_declares_a_bound():
    assert PARAMETERS
    for case in PARAMETERS:
        family, info = case.values
        assert info.bound is not None, f"{family}.{info.name} has no bound"
        assert info.type in ("int", "float")


@pytest.mark.parametrize("family,info", PARAMETERS)
@given(data=st.data())
def test_a_value_just_inside_the_bound_builds_a_spec(family, info, data):
    value = data.draw(just_inside(info))
    spec = scenario_by_name(f"{family}:{info.name}={value!r}", scale=SCALE)
    assert isinstance(spec, ScenarioSpec)
    assert compile_family(family, info.name, value) == []


@pytest.mark.parametrize("family,info", PARAMETERS)
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


@pytest.mark.parametrize("family,info", PARAMETERS)
@given(data=st.data())
def test_a_value_just_outside_the_bound_is_rejected_at_its_key(
    family, info, data
):
    value = data.draw(just_outside(info))
    with pytest.raises(ScenarioError, match=f"parameter '{info.name}'"):
        scenario_by_name(f"{family}:{info.name}={value!r}", scale=SCALE)
    (diag,) = compile_family(family, info.name, value)
    assert diag.path == f"params.{info.name}"
    assert diag.message.startswith("expected a value ")


@pytest.mark.parametrize("bound", [">=2", "> 0", "1..3", "-1.5..2", ">= -4"])
def test_well_formed_bounds_parse(bound):
    assert Bound.parse(bound).text == bound


@pytest.mark.parametrize("bound", ["", "> x", "3..1", "< 4", ">= 1 ", "1 .. 3"])
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


def test_direct_factory_calls_share_the_check():
    from repro.scenarios import contended_scenario, many_vms_scenario

    with pytest.raises(ScenarioError, match="parameter 'n': expected a value >= 1"):
        many_vms_scenario(n=0)
    with pytest.raises(ScenarioError, match="parameter 'nodes': expected an integer"):
        contended_scenario(nodes=2.5)
    with pytest.raises(ScenarioError, match="has no parameter 'nodez'"):
        contended_scenario(nodez=2)


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
