"""Smart allocation policy (Algorithm 4 + Equations 1-2 of the paper).

Smart-alloc adapts each VM's target to its observed swap activity:

* A VM that had failed puts during the last sampling interval (it tried to
  use tmem but was refused) gets its target *increased* by ``P`` percent
  of the node's total tmem capacity.
* A VM whose usage sits more than ``threshold`` pages below its target
  gets its target *decreased* by ``P`` percent of its current target —
  the threshold guards against premature decrements that would make the
  targets oscillate.
* Otherwise the target is left alone.

After the per-VM pass, the target vector is normalised so that the sum of
targets equals the node's tmem capacity (Equation 1); when the raw sum
exceeds the capacity every target is scaled proportionally (Equation 2).
The decision is only transmitted when the vector actually changed.

``P`` is the policy's main tuning knob; the paper evaluates P in
{0.25, 0.75, 2, 4, 6} percent depending on the scenario.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..policy import PolicyDecision, TmemPolicy, register_policy
from ..stats import MemStatsView, TargetVector
from ..targets import cap_targets

__all__ = ["SmartAllocPolicy"]

#: Default slack (in pages) a VM may sit below its target before the
#: policy starts reclaiming its share.  Expressed as a fraction of the
#: pool at decision time when ``threshold_pages`` is not given explicitly.
#: The value must comfortably exceed the natural churn of tmem usage
#: (exclusive gets make usage dip briefly below the target) or the targets
#: oscillate — the instability the paper's threshold exists to prevent.
DEFAULT_THRESHOLD_FRACTION = 0.05


@register_policy(
    "smart-alloc",
    param_docs={
        "percent": "P: % of the pool a swapping VM gains, % of its target an idle VM loses",
        "threshold_pages": "slack below its target before a VM shrinks; None: threshold_fraction",
        "threshold_fraction": "that slack as a fraction of the pool",
    },
    bounds={"percent": "(0, 100]", "threshold_pages": ">= 0", "threshold_fraction": "[0, 1)"},
)
class SmartAllocPolicy(TmemPolicy):
    """Demand-driven target adaptation (Algorithm 4)."""

    def __init__(
        self,
        percent: float = 2.0,
        *,
        threshold_pages: Optional[int] = None,
        threshold_fraction: float = DEFAULT_THRESHOLD_FRACTION,
    ) -> None:
        self.percent = float(percent)
        self._threshold_pages = threshold_pages
        self._threshold_fraction = threshold_fraction
        #: The MM-side view of the targets (``vm_data_MM``); kept locally so
        #: the policy can adapt from its own previous decision even before
        #: the hypervisor echoes it back.
        self._current: Optional[TargetVector] = None
        self._last_emitted: Optional[Tuple[Tuple[int, int], ...]] = None

    # -- helpers ---------------------------------------------------------------
    def reset(self) -> None:
        self._current = None
        self._last_emitted = None

    def _threshold_for(self, total_tmem: int) -> int:
        if self._threshold_pages is not None:
            return self._threshold_pages
        return max(1, int(total_tmem * self._threshold_fraction))

    def _bootstrap_targets(self, memstats: MemStatsView) -> TargetVector:
        """Initial targets: zero for every VM.

        Targets grow from zero purely in response to observed failed puts,
        so a VM that shows demand early can accumulate a large share while
        idle VMs hold none — this is what lets VM1/VM2 in Scenario 2 "take
        up a large amount of tmem capacity really fast" (Figure 6b) even
        under smart-alloc, with the capacity flowing towards VM3 only once
        it starts swapping.
        """
        return TargetVector({vm_id: 0 for vm_id in memstats.vm_ids()})

    # -- Algorithm 4 -----------------------------------------------------------------
    def decide(self, memstats: MemStatsView) -> PolicyDecision:
        if memstats.vm_count == 0 or not memstats.vms:
            return PolicyDecision.no_change(note="smart-alloc: no VMs")

        local_tmem = memstats.total_tmem
        threshold = self._threshold_for(local_tmem)
        increment = max(1, int(local_tmem * self.percent / 100.0))

        if self._current is None:
            self._current = self._bootstrap_targets(memstats)

        # Make sure newly appeared VMs have an entry (target zero until they
        # show demand) and departed VMs are dropped.
        known = {vm_id for vm_id, _ in self._current.items()}
        population = set(memstats.vm_ids())
        if known != population:
            rebuilt = TargetVector()
            for vm_id in sorted(population):
                rebuilt.set(vm_id, self._current.get(vm_id) if vm_id in known else 0)
            self._current = rebuilt

        raw = TargetVector()
        for vm in memstats.vms:
            # Prefer the hypervisor-reported target (it reflects what is
            # actually enforced); fall back to the MM's own record.
            curr_tgt = vm.mm_target if vm.mm_target >= 0 else self._current.get(vm.vm_id)
            if vm.puts_failed > 0:
                # The VM swapped during the last interval: grow its share by
                # P percent of the node's tmem (Algorithm 4, lines 9-12).
                new_target = curr_tgt + increment
            else:
                # No failed puts: consider shrinking if the VM is far below
                # its target (lines 13-21).
                difference = curr_tgt - vm.tmem_used
                if difference > threshold:
                    new_target = int(((100.0 - self.percent) * curr_tgt) / 100.0)
                else:
                    new_target = curr_tgt
            raw.set(vm.vm_id, max(0, new_target))

        # Equation 2: scale every target down proportionally whenever the
        # raw targets would over-commit the pool (Algorithm 4, lines 27-33).
        targets = cap_targets(raw, local_tmem)
        self.validate_targets(targets, memstats)
        self._current = targets

        emitted = tuple(targets.items())
        if emitted == self._last_emitted:
            return PolicyDecision.no_change(note="smart-alloc: targets unchanged")
        self._last_emitted = emitted
        return PolicyDecision.set_targets(
            targets, note=f"smart-alloc(P={self.percent}%): targets updated"
        )

    def describe(self) -> str:
        return f"smart-alloc (Algorithm 4, P={self.percent}%)"
