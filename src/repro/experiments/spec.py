"""Declarative sweep specifications.

A :class:`SweepSpec` is the cross-product of scenarios x policies x seeds
x scales; :meth:`SweepSpec.expand` turns it into addressable
:class:`ExperimentPoint` instances.  Points are pure data (frozen,
hashable, picklable) so they can be handed to worker processes and used
as keys for on-disk result storage.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Mapping, Tuple

from ..errors import ExperimentError
from ..params import scale_error

__all__ = ["ExperimentPoint", "SweepSpec"]


def _slug(text: str) -> str:
    """Filesystem-safe identifier fragment ("smart-alloc:P=2" -> "smart-alloc_P_2")."""
    slug = re.sub(r"[^A-Za-z0-9.\-]+", "_", text).strip("_")
    return slug or "x"


def _check_scale(scale: float) -> None:
    """The scenario factories' scale rule, as an experiment error."""
    message = scale_error(scale)
    if message:
        raise ExperimentError(message)


@dataclass(frozen=True, order=True)
class ExperimentPoint:
    """One addressable (scenario, policy, seed, scale) combination."""

    scenario: str
    policy: str
    seed: int
    scale: float = 1.0

    def __post_init__(self) -> None:
        if not self.scenario:
            raise ExperimentError("experiment point needs a scenario")
        if not self.policy:
            raise ExperimentError("experiment point needs a policy")
        _check_scale(self.scale)

    @property
    def point_id(self) -> str:
        """Content address: unique per (scenario, policy, seed, scale)."""
        return (
            f"{_slug(self.scenario)}__{_slug(self.policy)}"
            f"__seed{self.seed}__scale{self.scale:g}"
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "policy": self.policy,
            "seed": self.seed,
            "scale": self.scale,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentPoint":
        return cls(
            scenario=data["scenario"],
            policy=data["policy"],
            seed=int(data["seed"]),
            scale=float(data["scale"]),
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.scenario} / {self.policy} "
            f"(seed={self.seed}, scale={self.scale:g})"
        )


def _unique(values: Iterable[Any], what: str) -> Tuple[Any, ...]:
    out = tuple(values)
    if not out:
        raise ExperimentError(f"sweep needs at least one {what}")
    if len(set(out)) != len(out):
        raise ExperimentError(f"sweep {what} list contains duplicates: {out}")
    return out


@dataclass(frozen=True)
class SweepSpec:
    """A declarative experiment sweep (cross-product of four axes)."""

    scenarios: Tuple[str, ...]
    policies: Tuple[str, ...]
    seeds: Tuple[int, ...]
    scales: Tuple[float, ...] = (1.0,)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "scenarios", _unique(self.scenarios, "scenario")
        )
        object.__setattr__(self, "policies", _unique(self.policies, "policy"))
        object.__setattr__(
            self, "seeds", _unique((int(s) for s in self.seeds), "seed")
        )
        object.__setattr__(
            self, "scales", _unique((float(s) for s in self.scales), "scale")
        )
        for scale in self.scales:
            _check_scale(scale)

    @property
    def size(self) -> int:
        return (
            len(self.scenarios)
            * len(self.policies)
            * len(self.seeds)
            * len(self.scales)
        )

    def expand(self) -> Tuple[ExperimentPoint, ...]:
        """Every point of the sweep, in deterministic nesting order.

        Order: scenario (outermost), then scale, then policy, then seed —
        so all policy/seed variations of one scenario configuration are
        adjacent, which is what per-scenario reporting wants.
        """
        return tuple(
            ExperimentPoint(
                scenario=scenario, policy=policy, seed=seed, scale=scale
            )
            for scenario in self.scenarios
            for scale in self.scales
            for policy in self.policies
            for seed in self.seeds
        )

    def describe(self) -> str:
        return (
            f"{len(self.scenarios)} scenario(s) x {len(self.policies)} "
            f"policy(ies) x {len(self.seeds)} seed(s) x "
            f"{len(self.scales)} scale(s) = {self.size} points"
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scenarios": list(self.scenarios),
            "policies": list(self.policies),
            "seeds": list(self.seeds),
            "scales": list(self.scales),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepSpec":
        return cls(
            scenarios=tuple(data["scenarios"]),
            policies=tuple(data["policies"]),
            seeds=tuple(data["seeds"]),
            scales=tuple(data.get("scales", (1.0,))),
        )

