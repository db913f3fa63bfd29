"""Policy interface and registry.

A policy consumes one :class:`~repro.core.stats.MemStatsView` per sampling
interval and produces a :class:`PolicyDecision`.  A decision either
carries a new :class:`~repro.core.stats.TargetVector` or says "no change",
in which case the Memory Manager does not communicate with the hypervisor
at all — the paper's ``send_to_hypervisor`` only transmits when the
targets actually changed, to avoid needless hypercalls.

Policies are registered by name so that scenarios, the CLI and the
benchmark harness can select them with a string such as
``"smart-alloc:P=0.75"``.
"""

from __future__ import annotations

import inspect
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

from ..errors import PolicyError, UnknownPolicyError
from .stats import MemStatsView, TargetVector

__all__ = [
    "PolicyDecision",
    "TmemPolicy",
    "register_policy",
    "create_policy",
    "available_policies",
    "policy_spec_syntax",
    "parse_policy_spec",
]


@dataclass(frozen=True)
class PolicyDecision:
    """Output of one policy invocation."""

    #: New targets to install, or ``None`` for "leave the current targets".
    targets: Optional[TargetVector]
    #: Human-readable note used in traces and debug output.
    note: str = ""

    @property
    def changed(self) -> bool:
        return self.targets is not None

    @classmethod
    def no_change(cls, note: str = "") -> "PolicyDecision":
        return cls(targets=None, note=note)

    @classmethod
    def set_targets(cls, targets: TargetVector, note: str = "") -> "PolicyDecision":
        return cls(targets=targets, note=note)


class TmemPolicy(ABC):
    """Base class for high-level tmem management policies."""

    #: Registry name, overridden by subclasses ("greedy", "static-alloc", ...).
    name: str = "abstract"

    #: Whether this policy installs targets at all.  The greedy baseline
    #: does not; the Memory Manager then never issues target hypercalls.
    manages_targets: bool = True

    @abstractmethod
    def decide(self, memstats: MemStatsView) -> PolicyDecision:
        """Compute the next target vector from this interval's statistics."""

    def reset(self) -> None:
        """Forget any internal state (called between scenario runs)."""

    def describe(self) -> str:
        """One-line description used by reports."""
        return self.name

    # -- shared sanity check ----------------------------------------------------
    @staticmethod
    def validate_targets(targets: TargetVector, memstats: MemStatsView) -> None:
        """Check that a target vector is well-formed for this node."""
        for vm_id, value in targets.items():
            if value < 0:
                raise PolicyError(f"negative target for VM {vm_id}")
        if targets.total() > memstats.total_tmem:
            raise PolicyError(
                "targets over-commit the tmem pool: "
                f"{targets.total()} > {memstats.total_tmem}"
            )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------
_REGISTRY: Dict[str, Callable[..., TmemPolicy]] = {}
#: Policy name -> human-readable parametric spec syntax, shown by
#: ``smartmem list`` so users can discover the tunables without reading
#: the constructors.
_SPEC_SYNTAX: Dict[str, str] = {}


def register_policy(name: str, *, spec_syntax: str = "") -> Callable[[type], type]:
    """Class decorator registering a policy under *name*.

    ``spec_syntax`` documents the policy's parametric spec string (e.g.
    ``"smart-alloc:P=<percent>"``); it defaults to the bare name for
    parameter-less policies.
    """

    def decorator(cls: type) -> type:
        if not issubclass(cls, TmemPolicy):
            raise PolicyError(f"{cls!r} is not a TmemPolicy subclass")
        _REGISTRY[name] = cls
        _SPEC_SYNTAX[name] = spec_syntax or name
        cls.name = name
        return cls

    return decorator


def available_policies() -> Sequence[str]:
    """Names of every registered policy."""
    return tuple(sorted(_REGISTRY))


def policy_spec_syntax() -> Dict[str, str]:
    """Policy name -> parametric spec syntax (registration metadata)."""
    return dict(_SPEC_SYNTAX)


def parse_policy_spec(spec: str) -> tuple[str, Dict[str, float]]:
    """Split ``"smart-alloc:P=0.75,threshold=32"`` into name and kwargs."""
    name, _, args = spec.partition(":")
    kwargs: Dict[str, float] = {}
    if args:
        for part in args.split(","):
            key, _, value = part.partition("=")
            key = key.strip()
            if not key or not value:
                raise PolicyError(f"malformed policy argument {part!r} in {spec!r}")
            try:
                kwargs[key] = float(value)
            except ValueError:
                raise PolicyError(
                    f"policy argument {key!r} must be numeric, got {value!r}"
                ) from None
    return name.strip(), kwargs


def create_policy(spec: str, **extra_kwargs) -> TmemPolicy:
    """Instantiate a policy from a spec string such as ``"smart-alloc:P=2"``.

    Keyword arguments given explicitly override those parsed from the spec.
    """
    name, kwargs = parse_policy_spec(spec)
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise UnknownPolicyError(
            f"unknown policy {name!r}; available: {', '.join(available_policies())}"
        ) from None
    kwargs.update(extra_kwargs)
    # Map the paper's parameter name "P" onto the constructor argument.
    if "P" in kwargs:
        kwargs["percent"] = kwargs.pop("P")
    check_arguments("policy", name, factory, kwargs)
    return factory(**kwargs)


def check_arguments(kind: str, name: str, factory: Callable, kwargs: Dict) -> None:
    """Raise :class:`PolicyError` unless *factory* takes *kwargs*."""
    signature = inspect.signature(factory)
    try:
        signature.bind(**kwargs)
    except TypeError as exc:
        accepted = ", ".join(signature.parameters) or "none"
        raise PolicyError(
            f"{kind} {name!r} {exc}; accepted parameters: {accepted}"
        ) from None
