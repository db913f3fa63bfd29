"""The policy output of the Memory Manager (``mm_out`` in Table I).

The policy's input, ``memstats``, is the sampler's
:class:`~repro.hypervisor.virq.StatsSnapshot`: the Memory Manager hands
each snapshot it receives straight to its policy.  What the policy hands
back is a :class:`TargetVector`, one tmem page target per VM.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional

from ..errors import PolicyError

__all__ = ["TargetVector"]


class TargetVector:
    """The policy output (``mm_out``): a per-VM tmem page target."""

    def __init__(self, targets: Optional[Mapping[int, int]] = None) -> None:
        self._targets: Dict[int, int] = {}
        if targets:
            for vm_id, value in targets.items():
                self.set(vm_id, value)

    def set(self, vm_id: int, target_pages: int) -> None:
        if target_pages < 0:
            raise PolicyError(
                f"target for VM {vm_id} must be >= 0, got {target_pages}"
            )
        self._targets[int(vm_id)] = int(target_pages)

    def get(self, vm_id: int) -> int:
        try:
            return self._targets[vm_id]
        except KeyError:
            raise PolicyError(f"no target for VM {vm_id}") from None

    def __contains__(self, vm_id: int) -> bool:
        return vm_id in self._targets

    def __len__(self) -> int:
        return len(self._targets)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TargetVector):
            return NotImplemented
        return self._targets == other._targets

    def __hash__(self) -> int:  # pragma: no cover - not used as dict key
        return hash(tuple(sorted(self._targets.items())))

    def items(self) -> Iterable[tuple[int, int]]:
        return sorted(self._targets.items())

    def as_dict(self) -> Dict[int, int]:
        return dict(self._targets)

    def total(self) -> int:
        return sum(self._targets.values())

    def copy(self) -> "TargetVector":
        return TargetVector(self._targets)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        inner = ", ".join(f"vm{v}={t}" for v, t in self.items())
        return f"TargetVector({inner})"
