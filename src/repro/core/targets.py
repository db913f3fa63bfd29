"""Target-vector helpers: Equations 1 and 2 of the paper.

The smart-alloc policy (and any custom policy built on this library) must
keep two invariants over the per-VM targets:

1. the targets sum to the node's tmem capacity (Equation 1), so no page is
   left permanently unassigned and over-allocation cannot occur; and
2. when the raw targets would exceed the capacity, every target is scaled
   down proportionally (Equation 2), which preserves the relative shares
   and therefore fairness.

These helpers operate on :class:`~repro.core.stats.TargetVector` values
and are deliberately pure so they can be property-tested in isolation.
"""

from __future__ import annotations

from typing import Sequence

from ..errors import PolicyError
from .stats import TargetVector

__all__ = ["equal_share", "proportional_scale", "cap_targets"]


def equal_share(vm_ids: Sequence[int], total_tmem: int) -> TargetVector:
    """Divide *total_tmem* equally among *vm_ids* (Algorithm 2's split).

    The remainder pages left by integer division are handed out one by one
    to the lowest-numbered VMs so the shares always sum exactly to
    ``total_tmem``.
    """
    if total_tmem < 0:
        raise PolicyError(f"total_tmem must be >= 0, got {total_tmem}")
    ids = sorted(set(int(v) for v in vm_ids))
    if not ids:
        return TargetVector()
    base, remainder = divmod(total_tmem, len(ids))
    vector = TargetVector()
    for position, vm_id in enumerate(ids):
        vector.set(vm_id, base + (1 if position < remainder else 0))
    return vector


def proportional_scale(targets: TargetVector, total_tmem: int) -> TargetVector:
    """Scale targets so they sum to *total_tmem*, preserving proportions.

    This is Equation 2: ``new_i = total * old_i / sum(old)``.  Rounding is
    done with the largest-remainder method so the scaled targets sum to
    exactly ``total_tmem`` (floor rounding alone would strand pages).
    """
    if total_tmem < 0:
        raise PolicyError(f"total_tmem must be >= 0, got {total_tmem}")
    current_sum = targets.total()
    if current_sum == 0:
        # Nothing to scale: fall back to an equal split over the same VMs.
        return equal_share([vm for vm, _ in targets.items()], total_tmem)

    quotas = {
        vm_id: total_tmem * value / current_sum for vm_id, value in targets.items()
    }
    floored = {vm_id: int(q) for vm_id, q in quotas.items()}
    assigned = sum(floored.values())
    leftover = total_tmem - assigned
    # Hand out the leftover pages to the largest fractional remainders.
    remainders = sorted(
        quotas, key=lambda vm_id: (quotas[vm_id] - floored[vm_id], -vm_id), reverse=True
    )
    for vm_id in remainders[:leftover]:
        floored[vm_id] += 1
    return TargetVector(floored)


def cap_targets(targets: TargetVector, total_tmem: int) -> TargetVector:
    """Enforce Equation 2 only: scale down when the pool is over-committed.

    This is exactly what Algorithm 4 (lines 27-33) does: targets are left
    alone while their sum fits in the pool, and scaled proportionally when
    it does not.  Under-commitment is allowed — targets grow towards the
    pool size at ``P`` percent per interval, so the paper's Equation 1
    (all pages assigned) is reached asymptotically rather than forced.
    """
    if total_tmem < 0:
        raise PolicyError(f"total_tmem must be >= 0, got {total_tmem}")
    if targets.total() <= total_tmem:
        return targets.copy()
    return proportional_scale(targets, total_tmem)
