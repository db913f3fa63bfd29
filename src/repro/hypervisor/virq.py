"""Statistics sampling and the VIRQ towards the privileged domain.

In the real system the hypervisor accumulates per-VM counters (Table I)
and, once per second, raises a virtual interrupt (VIRQ) into the
privileged domain.  The Tmem Kernel Module there reads the statistics via
a hypercall and relays them to the user-space Memory Manager over a
netlink socket.

:class:`StatisticsSampler` reproduces that cadence: it registers a
recurring timer with the simulation engine, snapshots the accounting
structures into an immutable :class:`StatsSnapshot`, resets the
per-interval counters, records the per-VM tmem usage into the trace
recorder (this is the data behind Figures 4/6/8/10), and invokes the
registered listener (the TKM) with the snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from ..sim.engine import SimulationEngine
from ..sim.events import EventPriority, RecurringTimer
from ..sim.trace import TraceRecorder
from .accounting import HypervisorAccounting, UNLIMITED_TARGET

__all__ = ["VmStatsSample", "StatsSnapshot", "StatisticsSampler"]


@dataclass(frozen=True)
class VmStatsSample:
    """Per-VM view shipped to the Memory Manager (``memstats.vm[i]``)."""

    vm_id: int
    tmem_used: int
    mm_target: int
    puts_total: int
    puts_succ: int
    gets_total: int
    flushes_total: int
    cumul_puts_failed: int
    #: Puts refused locally but spilled to a peer node (clusters only).
    puts_remote: int = 0

    @property
    def puts_failed(self) -> int:
        """Failed puts in the sampling interval (Algorithm 4, line 8)."""
        return self.puts_total - self.puts_succ

    @property
    def has_target(self) -> bool:
        return self.mm_target != UNLIMITED_TARGET


@dataclass(frozen=True)
class StatsSnapshot:
    """One sampling interval's statistics (``memstats`` in the paper).

    The Memory Manager hands this very object to its policy.
    """

    time: float
    interval_s: float
    total_tmem: int
    free_tmem: int
    vm_count: int
    vms: Sequence[VmStatsSample] = field(default_factory=tuple)

    def vm(self, vm_id: int) -> VmStatsSample:
        for sample in self.vms:
            if sample.vm_id == vm_id:
                return sample
        raise KeyError(f"no VM {vm_id} in snapshot at t={self.time}")

    def vm_ids(self) -> Sequence[int]:
        return tuple(sample.vm_id for sample in self.vms)


SnapshotListener = Callable[[StatsSnapshot], None]


class StatisticsSampler:
    """Periodic sampler that raises the statistics VIRQ."""

    def __init__(
        self,
        engine: SimulationEngine,
        accounting: HypervisorAccounting,
        *,
        interval_s: float,
        trace: Optional[TraceRecorder] = None,
        free_trace_name: str = "tmem_free",
    ) -> None:
        self._engine = engine
        self._accounting = accounting
        self._interval = float(interval_s)
        self._trace = trace
        #: Trace series holding the node's free tmem pages.  Clusters give
        #: each node its own name ("tmem_free/<node>") so the per-node
        #: series do not interleave in the shared recorder.
        self._free_trace_name = free_trace_name
        self._listeners: List[SnapshotListener] = []
        self._timer: Optional[RecurringTimer] = None
        #: Snapshots taken so far.  The snapshots themselves are not kept:
        #: each lives only as long as its listeners hold it.
        self.snapshots = 0

    # -- wiring ------------------------------------------------------------
    def subscribe(self, listener: SnapshotListener) -> None:
        """Register a listener called with every snapshot (the TKM)."""
        self._listeners.append(listener)

    def start(self) -> None:
        """Begin raising the VIRQ every sampling interval.

        The engine hands back a native :class:`RecurringTimer` record
        that re-arms in place after every sample — no per-tick event
        allocation or rescheduling closure.
        """
        if self._timer is not None:
            return
        self._timer = self._engine.schedule_recurring(
            self._interval,
            self.sample_now,
            priority=EventPriority.TIMER,
            label="tmem-stats-virq",
        )

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    @property
    def interval_s(self) -> float:
        return self._interval

    # -- sampling ----------------------------------------------------------
    def sample_now(self) -> StatsSnapshot:
        """Take a snapshot and raise the VIRQ: every listener receives it."""
        snapshot = self.record()
        for listener in self._listeners:
            listener(snapshot)
        return snapshot

    def record(self) -> StatsSnapshot:
        """Take a snapshot without raising the VIRQ.

        The snapshot records its traces and counts in :attr:`snapshots`,
        but no listener sees it.  A node takes its closing sample this
        way once the engine has stopped: relayed, it would wait forever
        on a netlink delivery that never runs.
        """
        now = self._engine.now
        node = self._accounting.node_info()
        samples = []
        for account in sorted(self._accounting.accounts(), key=lambda a: a.vm_id):
            if account.internal:
                # Cluster-internal accounts (the remote-tmem spill
                # client) are invisible to the Memory Manager: no
                # sample, no trace, and therefore never a target.
                account.reset_interval()
                continue
            samples.append(
                VmStatsSample(
                    vm_id=account.vm_id,
                    tmem_used=account.tmem_used,
                    mm_target=account.mm_target,
                    puts_total=account.puts_total,
                    puts_succ=account.puts_succ,
                    gets_total=account.gets_total,
                    flushes_total=account.flushes_total,
                    cumul_puts_failed=account.cumul_puts_failed,
                    puts_remote=account.puts_remote,
                )
            )
            if self._trace is not None:
                self._trace.record(f"tmem_used/vm{account.vm_id}", now, account.tmem_used)
                if account.has_target:
                    self._trace.record(
                        f"mm_target/vm{account.vm_id}", now, account.mm_target
                    )
            account.reset_interval()

        if self._trace is not None:
            self._trace.record(self._free_trace_name, now, node.free_tmem)

        snapshot = StatsSnapshot(
            time=now,
            interval_s=self._interval,
            total_tmem=node.total_tmem,
            free_tmem=node.free_tmem,
            vm_count=node.vm_count,
            vms=tuple(samples),
        )
        self.snapshots += 1
        return snapshot
