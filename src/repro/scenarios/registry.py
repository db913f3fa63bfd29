"""Decorator-based scenario registry.

The paper's four scenarios used to live in a hardcoded factory dict; this
module replaces that with an open registry so new scenario *families* can
be added with a decorator::

    @register_scenario(
        "my-family",
        summary="two VMs fighting over tmem",
        param_docs={"n": "number of VMs"},
        bounds={"n": ">= 1"},
    )
    def my_family(*, scale: float = 1.0, n: int = 2) -> ScenarioSpec:
        ...

Families are parametric: a scenario spec string may carry numeric
arguments in the same ``name:key=value,key=value`` syntax used for policy
specs (e.g. ``"many-vms:n=8"``), which are forwarded to the factory as
keyword arguments.  Parameter keys are case-insensitive (``N=8`` and
``n=8`` are equivalent).

Each entry also carries parameter *metadata* (type, default, one-line
doc, units, bound) derived from the factory's signature plus the
``param_docs`` and ``bounds`` mappings given at registration time;
``smartmem list --verbose``, the DSL validator and
``scripts/gen_scenario_docs.py`` all consume it.  A bound is ``">= N"``,
``"> N"`` or an interval such as ``"[1, 3]"`` or ``"(0, 1]"`` (see
:class:`~repro.params.Bound`); a malformed one fails at registration.
Workload kinds, policies and coordinators declare theirs the same way
(:class:`~repro.params.SpecRegistry`).

The decorator returns the factory wrapped in the one check of its
arguments: the scale must be finite and > 0, and every parameter must be
known, of its declared type and within its bound.  Direct calls, spec
strings and DSL documents all go through it, so factories hold no
argument checks of their own.

The built-in families register when their module is imported: the
paper's scenarios (:mod:`repro.scenarios.library`) on a lookup, the
parametric families (:mod:`repro.scenarios.families`) only on a lookup
the paper's scenarios miss.  Every listing, and a registration from any
other module, imports both first, so listings are complete and a
built-in name cannot be taken.
"""

from __future__ import annotations

import functools
import importlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from ..errors import ScenarioError
from ..params import (
    ParameterInfo,
    check_params,
    parse_spec,
    scale_error,
    signature_parameter_info,
    suggest,
)
from .spec import ScenarioSpec

__all__ = [
    "ScenarioEntry",
    "register_scenario",
    "parse_scenario_spec",
    "scenario_by_name",
    "all_scenarios",
    "available_scenarios",
    "paper_scenario_names",
    "registered_scenarios",
]


@dataclass(frozen=True)
class ScenarioEntry:
    """One registered scenario family."""

    name: str
    #: The factory wrapped in the check of its arguments.
    factory: Callable[..., ScenarioSpec]
    summary: str
    #: True for the paper's Table II scenarios; these are what
    #: :func:`all_scenarios` (and the default sweep set) return.
    paper: bool = False
    #: Metadata of every tunable factory parameter, read at registration.
    info: Tuple[ParameterInfo, ...] = ()

    def parameter_info(self) -> Tuple[ParameterInfo, ...]:
        """Typed metadata for every tunable factory parameter.

        Types and defaults come from the factory signature (so they can
        never drift from the code); one-line descriptions and bounds
        come from the ``param_docs`` and ``bounds`` mappings given at
        registration time.
        """
        return self.info

    def valid_keys(self) -> Tuple[str, ...]:
        """The keyword arguments the factory accepts (besides ``scale``)."""
        return tuple(info.name for info in self.info)


_REGISTRY: Dict[str, ScenarioEntry] = {}

#: The modules that register the built-in families, in registration
#: order: the paper's scenarios, then the parametric families.  Each
#: loads on first need: a lookup that misses what is registered, any
#: listing, or a registration from elsewhere.
_BUILT_IN_MODULES = ("repro.scenarios.library", "repro.scenarios.families")


def _import_built_ins(name: Optional[str] = None) -> None:
    """Import the built-in modules in order, stopping once *name* is
    registered (importing every one when *name* is None)."""
    for module in _BUILT_IN_MODULES:
        if name is not None and name in _REGISTRY:
            return
        importlib.import_module(module)


def _checked(
    name: str, factory: Callable[..., ScenarioSpec], info: Tuple[ParameterInfo, ...]
) -> Callable[..., ScenarioSpec]:
    """*factory* behind the check of its scale and parameters."""
    owner = f"scenario family {name!r}"

    @functools.wraps(factory)
    def checked(*, scale: float = 1.0, **params: Any) -> ScenarioSpec:
        message = scale_error(scale)
        if message:
            raise ScenarioError(message)
        check_params(info, params, owner, ScenarioError)
        return factory(scale=scale, **params)

    return checked


def register_scenario(
    name: str,
    *,
    paper: bool = False,
    summary: str = "",
    param_docs: Mapping[str, str] = {},
    bounds: Mapping[str, str] = {},
) -> Callable[[Callable[..., ScenarioSpec]], Callable[..., ScenarioSpec]]:
    """Decorator registering a scenario factory under *name*.

    The factory must accept ``scale`` plus any numeric family parameters
    as keyword arguments and return a :class:`ScenarioSpec`.
    *param_docs* maps parameter names to one-line descriptions used in
    generated documentation and ``smartmem list --verbose``; *bounds*
    maps them to the values they accept.  The decorator returns the
    factory wrapped in the check of its arguments.
    """
    if not name:
        raise ScenarioError("scenario family name must not be empty")
    if ":" in name or "," in name or "=" in name:
        raise ScenarioError(
            f"scenario family name {name!r} must not contain ':', ',' or '='"
        )

    def decorator(factory: Callable[..., ScenarioSpec]) -> Callable[..., ScenarioSpec]:
        if factory.__module__ not in _BUILT_IN_MODULES:
            # So a built-in name is taken before anyone else can claim it.
            _import_built_ins()
        if name in _REGISTRY:
            raise ScenarioError(f"scenario family {name!r} is already registered")
        try:
            info = signature_parameter_info(factory, docs=param_docs, bounds=bounds)
        except ValueError as exc:
            raise ScenarioError(f"scenario family {name!r}: {exc}") from None
        doc_summary = summary
        if not doc_summary and factory.__doc__:
            doc_summary = factory.__doc__.strip().splitlines()[0]
        checked = _checked(name, factory, info)
        _REGISTRY[name] = ScenarioEntry(
            name=name, factory=checked, summary=doc_summary, paper=paper, info=info
        )
        return checked

    return decorator


def parse_scenario_spec(spec: str) -> Tuple[str, Dict[str, float]]:
    """Split ``"many-vms:n=8,ram_mb=512"`` into a family name and kwargs
    (:func:`~repro.params.parse_spec`: keys lower-cased, integral values
    as ``int``)."""
    return parse_spec(spec, ScenarioError, "scenario")


def scenario_by_name(name: str, *, scale: float = 1.0) -> ScenarioSpec:
    """Build the scenario described by a spec string such as ``"churn:n=6"``."""
    family, kwargs = parse_scenario_spec(name)
    _import_built_ins(family)
    if family not in _REGISTRY:
        raise ScenarioError(
            f"unknown scenario {family!r}{suggest(family, sorted(_REGISTRY))}"
            f"; available: {sorted(_REGISTRY)}"
        )
    return _REGISTRY[family].factory(scale=scale, **kwargs)


def all_scenarios(*, scale: float = 1.0) -> Dict[str, ScenarioSpec]:
    """The paper's Table II scenarios, keyed by name (registration order)."""
    _import_built_ins()
    return {
        name: entry.factory(scale=scale)
        for name, entry in _REGISTRY.items()
        if entry.paper
    }


def paper_scenario_names() -> Tuple[str, ...]:
    """Names of the paper's scenarios, in registration order."""
    _import_built_ins()
    return tuple(name for name, entry in _REGISTRY.items() if entry.paper)


def available_scenarios() -> Tuple[str, ...]:
    """Names of every registered scenario family (sorted)."""
    _import_built_ins()
    return tuple(sorted(_REGISTRY))


def registered_scenarios() -> Dict[str, ScenarioEntry]:
    """A snapshot of the registry, keyed by family name."""
    _import_built_ins()
    return dict(_REGISTRY)
