"""Policy interface and registry.

A policy consumes one :class:`~repro.core.stats.MemStatsView` per sampling
interval and produces a :class:`PolicyDecision`.  A decision either
carries a new :class:`~repro.core.stats.TargetVector` or says "no change",
in which case the Memory Manager does not communicate with the hypervisor
at all — the paper's ``send_to_hypervisor`` only transmits when the
targets actually changed, to avoid needless hypercalls.

Policies are registered by name in :data:`POLICIES` so that scenarios,
the CLI and the benchmark harness can select them with a string such as
``"smart-alloc:P=0.75"``.  Each registration declares its constructor
parameters' docs and bounds, which every way of building the policy
checks.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional

from ..errors import PolicyError, UnknownPolicyError
from ..params import SpecRegistry, parse_spec
from .stats import MemStatsView, TargetVector

__all__ = [
    "POLICIES",
    "PolicyDecision",
    "TmemPolicy",
    "register_policy",
    "create_policy",
    "available_policies",
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

    #: Registry name ("greedy", "static-alloc", ...), set by :func:`register_policy`.
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
#: Every tmem policy, by name.
POLICIES = SpecRegistry(TmemPolicy, "policy", PolicyError, UnknownPolicyError)

#: Class decorator: ``@register_policy(name, param_docs=..., bounds=...)``.
register_policy = POLICIES.register

#: Names of every registered policy, sorted.
available_policies = POLICIES.names


def create_policy(spec: str) -> TmemPolicy:
    """Instantiate a policy from a spec string such as ``"smart-alloc:P=2"``.

    ``P`` (any case, as every key) is the paper's name for ``percent``.
    """
    name, params = parse_spec(spec, PolicyError, "policy")
    if "p" in params:
        params["percent"] = params.pop("p")
    return POLICIES.lookup(name)(**params)
