"""Policy interface and registry.

A policy consumes one :class:`~repro.hypervisor.virq.StatsSnapshot`
(``memstats``) per sampling interval, the very object the statistics
sampler built, and produces a :class:`PolicyDecision`.  A decision either
carries a :class:`~repro.core.stats.TargetVector` or says "no change".
A policy may hand back the same vector every interval: the Memory
Manager is the one gate that keeps it from the hypervisor — the paper's
``send_to_hypervisor`` only transmits when the targets actually changed,
to avoid needless hypercalls, and refuses a vector that over-commits the
pool.

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
from ..hypervisor.virq import StatsSnapshot
from ..params import SpecRegistry, parse_spec
from .stats import TargetVector

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

    @property
    def changed(self) -> bool:
        return self.targets is not None

    @classmethod
    def no_change(cls) -> "PolicyDecision":
        return cls(targets=None)

    @classmethod
    def set_targets(cls, targets: TargetVector) -> "PolicyDecision":
        return cls(targets=targets)


class TmemPolicy(ABC):
    """Base class for high-level tmem management policies."""

    #: Registry name ("greedy", "static-alloc", ...), set by :func:`register_policy`.
    name: str = "abstract"

    #: Whether this policy installs targets at all.  The greedy baseline
    #: does not; the Memory Manager then never issues target hypercalls.
    manages_targets: bool = True

    @abstractmethod
    def decide(self, memstats: StatsSnapshot) -> PolicyDecision:
        """Compute the next target vector from this interval's statistics."""

    def reset(self) -> None:
        """Forget any internal state (called between scenario runs)."""


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
