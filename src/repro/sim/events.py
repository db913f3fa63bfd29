"""Event records and handles used by the simulation engine.

The engine stores pending work in a *slab*: per-event state (callback,
label, liveness) lives in parallel slot arrays owned by the engine, and
the heap orders plain ``(time, priority, seq, slot)`` tuples pointing
into it.  Slots are recycled through a free list, so steady-state
scheduling allocates no per-event objects beyond the heap tuple itself.

Two lightweight handle types front the slab:

* :class:`EventHandle` — returned by ``schedule_at``/``schedule_after``;
  supports cancellation and introspection without keeping the event's
  callback alive after it has run.
* :class:`RecurringTimer` — an engine-owned periodic timer record that
  re-arms *in place* after each firing (same slot, fresh heap entry)
  instead of rebuilding a rescheduling closure per fire.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Optional

__all__ = ["EventPriority", "EventHandle", "RecurringTimer"]


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


class EventHandle:
    """Cancellation/introspection handle for one scheduled event.

    The handle carries the slot index and the slot *generation* observed
    at scheduling time, so a stale handle (whose event already ran and
    whose slot was recycled) can never cancel an unrelated later event.
    """

    __slots__ = ("_engine", "_slot", "_gen", "time", "priority",
                 "sequence", "label", "_cancelled")

    def __init__(
        self,
        engine: "SimulationEngine",  # noqa: F821
        slot: int,
        gen: int,
        time: float,
        priority: int,
        sequence: int,
        label: str,
    ) -> None:
        self._engine = engine
        self._slot = slot
        self._gen = gen
        self.time = time
        self.priority = priority
        self.sequence = sequence
        self.label = label
        self._cancelled = False

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def cancel(self) -> None:
        """Cancel the event; a no-op once it has run or been cancelled."""
        if self._cancelled:
            return
        self._cancelled = True
        self._engine._cancel_slot(self._slot, self._gen)

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        state = "cancelled" if self._cancelled else "scheduled"
        return (
            f"EventHandle(t={self.time!r}, priority={self.priority}, "
            f"seq={self.sequence}, label={self.label!r}, {state})"
        )


class RecurringTimer:
    """An engine-owned periodic timer that re-arms in place.

    Created by :meth:`SimulationEngine.schedule_recurring`.  The timer
    holds one slab slot for its whole lifetime; after each firing the
    engine pushes a fresh heap entry for the same slot instead of
    allocating a new event and a rescheduling closure.

    Instances are callable for backward compatibility with the previous
    API, which returned a zero-argument cancel function.
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

    # Backward compatibility: ``schedule_recurring`` used to return a
    # plain cancel function; existing callers invoke the result directly.
    __call__ = cancel

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        state = "cancelled" if self.cancelled else "armed"
        return (
            f"RecurringTimer(interval={self.interval!r}, "
            f"label={self.label!r}, {state})"
        )
