"""The Memory Manager (MM) user-space process.

The MM is the coarse-grained half of SmarTmem: a user-space process in
Xen's privileged domain that receives the per-interval statistics relayed
by the TKM over netlink, hands each snapshot as it is to its policy, and
— only when the targets changed — sends the vector back down to the TKM,
which installs it in the hypervisor through a custom hypercall.  The MM
keeps counters, not the snapshots it has seen.

The class can be wired in two ways:

* **channel mode** (the faithful architecture): construct it with the two
  netlink channels; statistics arrive as messages and target vectors leave
  as messages.  This is what :class:`repro.scenarios.runner.ScenarioRunner`
  uses.
* **direct mode** (for unit tests and library users who just want policy
  outputs): call :meth:`process_snapshot` with a snapshot and inspect the
  returned decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..channels.netlink import NetlinkChannel, NetlinkMessage
from ..errors import PolicyError
from ..hypervisor.virq import StatsSnapshot
from .policy import PolicyDecision, TmemPolicy
from .stats import TargetVector

__all__ = ["MemoryManagerStats", "MemoryManager"]


@dataclass
class MemoryManagerStats:
    """Operational counters of the MM process."""

    snapshots_received: int = 0
    decisions_made: int = 0
    target_updates_sent: int = 0


class MemoryManager:
    """User-space tmem manager driving a single high-level policy."""

    #: netlink message kinds (mirrors PrivilegedTkm)
    MSG_STATS = "memstats"
    MSG_TARGETS = "mm_targets"

    def __init__(
        self,
        policy: TmemPolicy,
        *,
        stats_channel: Optional[NetlinkChannel] = None,
        target_channel: Optional[NetlinkChannel] = None,
    ) -> None:
        self.policy = policy
        self._target_channel = target_channel
        self._last_sent: Optional[TargetVector] = None
        self.stats = MemoryManagerStats()

        if stats_channel is not None:
            stats_channel.subscribe(self._on_stats_message)

    # -- channel mode ------------------------------------------------------------
    def _on_stats_message(self, message: NetlinkMessage) -> None:
        if message.kind != self.MSG_STATS:
            return
        snapshot: StatsSnapshot = message.payload
        decision = self.process_snapshot(snapshot)
        if decision.changed and self._target_channel is not None:
            assert decision.targets is not None
            self._target_channel.send(self.MSG_TARGETS, decision.targets.as_dict())
            self.stats.target_updates_sent += 1

    # -- direct mode ----------------------------------------------------------------
    def process_snapshot(self, snapshot: StatsSnapshot) -> PolicyDecision:
        """Feed one statistics snapshot to the policy and return its decision."""
        self.stats.snapshots_received += 1
        if not self.policy.manages_targets:
            return PolicyDecision.no_change()

        decision = self.policy.decide(snapshot)
        self.stats.decisions_made += 1

        if decision.changed:
            assert decision.targets is not None
            # ``send_to_hypervisor`` semantics: suppress identical vectors.
            if self._last_sent is not None and decision.targets == self._last_sent:
                return PolicyDecision.no_change()
            if decision.targets.total() > snapshot.total_tmem:
                raise PolicyError(
                    f"policy {self.policy.name} over-committed the pool: "
                    f"{decision.targets.total()} > {snapshot.total_tmem}"
                )
            self._last_sent = decision.targets.copy()
        return decision
