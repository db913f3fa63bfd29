"""Event priorities and the recurring-timer record of the simulation engine.

The engine stores pending work in a *slab*: per-event state (callback,
label, liveness) lives in parallel slot arrays owned by the engine, and
the heap orders plain ``(time, priority, seq, slot)`` tuples pointing
into it.  Slots are recycled through a free list, so steady-state
scheduling allocates no per-event objects beyond the heap tuple itself.

One-shot events are fire-and-forget and have no handle.  The one record
that fronts the slab is :class:`RecurringTimer`: an engine-owned
periodic timer that re-arms *in place* after each firing (same slot,
fresh heap entry) instead of rebuilding a rescheduling closure per
fire, and the one event that can be cancelled.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Optional

__all__ = ["EventPriority", "RecurringTimer"]


class EventPriority(enum.IntEnum):
    """Tie-break ordering for events scheduled at the same instant.

    Lower values run first.  The distinction matters for the sampling
    machinery: when a VIRQ tick coincides with workload activity, the
    statistics snapshot should observe the state *before* the new interval's
    activity is accounted, mirroring the hypervisor's timer interrupt
    preempting guest execution.
    """

    TIMER = 0
    HYPERVISOR = 1
    NORMAL = 2
    WORKLOAD = 3
    LOW = 4


class RecurringTimer:
    """An engine-owned periodic timer that re-arms in place.

    Created by :meth:`SimulationEngine.schedule_recurring`.  The timer
    holds one slab slot for its whole lifetime; after each firing the
    engine pushes a fresh heap entry for the same slot instead of
    allocating a new event and a rescheduling closure.
    """

    __slots__ = ("_engine", "interval", "callback", "priority", "label",
                 "_slot", "cancelled")

    def __init__(
        self,
        engine: "SimulationEngine",  # noqa: F821
        interval: float,
        callback: Callable[[], Any],
        priority: int,
        label: str,
    ) -> None:
        self._engine = engine
        self.interval = interval
        self.callback = callback
        self.priority = priority
        self.label = label
        self._slot: Optional[int] = None
        self.cancelled = False

    def cancel(self) -> None:
        """Stop the recurrence; the pending firing (if any) is skipped."""
        if self.cancelled:
            return
        self.cancelled = True
        self._engine._cancel_timer(self)

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        state = "cancelled" if self.cancelled else "armed"
        return (
            f"RecurringTimer(interval={self.interval!r}, "
            f"label={self.label!r}, {state})"
        )
