"""Heap-based discrete-event simulation engine.

The engine owns a monotonically non-decreasing clock (``now``) and a
binary heap of plain ``(time, priority, seq, slot)`` tuples.  Per-event
state — callback, optional argument, label, liveness — lives in a slab
of parallel slot arrays recycled through a free list, so steady-state
scheduling allocates no per-event record: pushing an event is one tuple
plus a slot write, and ``pending_events`` is a counter maintained on
schedule, fire and cancel (O(1) to read).

SmarTmem's control loop is periodic, so the simulator schedules only
two kinds of work.  Fire-and-forget callbacks go through
:meth:`schedule_call_at` and :meth:`schedule_call_after`; they return
no handle and cannot be cancelled.  Recurring activity (the
hypervisor's one-second statistics VIRQ, the cluster coordinator's
rebalance tick) uses :meth:`schedule_recurring`, which returns an
engine-owned :class:`~repro.sim.events.RecurringTimer`, the one
cancellable event.  A timer re-arms in place after each firing (same
slab slot, fresh heap entry) instead of scheduling a new closure per
fire.

The engine is single-threaded and deterministic: events at the same
timestamp are ordered by priority then insertion order.  Components
that can prove their next action precedes every other live event may
use :meth:`try_fast_forward` to advance the clock inline and skip the
heap round-trip entirely (see the VM driver's burst fast-forward path);
the grant conditions replicate exactly the checks ``run()`` performs
between events, so fast-forwarded runs are order-identical to
heap-dispatched ones.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

from ..errors import ClockError, EventError, SimulationError
from .events import EventPriority, RecurringTimer

__all__ = ["SimulationEngine"]

#: Slot states.  ``_LIVE`` and ``_TIMER`` are the two "will fire" states
#: and are deliberately the largest values so liveness is one comparison
#: (``state >= _LIVE``) on the hot pop path.
_FREE = 0
_CANCELLED = 1
_LIVE = 2
_TIMER = 3

#: Sentinel distinguishing "no argument" from "argument is None".
_NO_ARG = object()


class SimulationEngine:
    """A minimal but complete discrete-event engine (slab-backed)."""

    def __init__(self, *, fast_forward: bool = True) -> None:
        self._now = 0.0
        #: Heap of (time, priority, seq, slot) tuples.
        self._queue: List[Tuple[float, int, int, int]] = []
        self._running = False
        self._stopped = False
        self._events_executed = 0
        self._live_events = 0
        #: Per-engine insertion sequence; makes heap ordering total.
        self._seq = 0
        # -- the event slab ----------------------------------------------
        self._slot_callback: List[Any] = []
        self._slot_arg: List[Any] = []
        self._slot_label: List[str] = []
        self._slot_state: List[int] = []
        self._free_slots: List[int] = []
        # -- run-scoped controls (consulted by try_fast_forward) ---------
        self._run_until: Optional[float] = None
        self._run_stop_when: Optional[Callable[[], bool]] = None
        self._fast_forward_enabled = bool(fast_forward)

    # -- clock ---------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Number of callbacks run so far, including fast-forwarded ones."""
        return self._events_executed

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events still queued.

        Maintained as a counter on schedule/cancel/fire transitions, so
        reading it is O(1) rather than an O(n) scan.  An armed recurring
        timer counts as one pending event.
        """
        return self._live_events

    # -- slab management -------------------------------------------------------
    def _alloc_slot(self, callback: Any, arg: Any, label: str, state: int) -> int:
        free = self._free_slots
        if free:
            slot = free.pop()
            self._slot_callback[slot] = callback
            self._slot_arg[slot] = arg
            self._slot_label[slot] = label
            self._slot_state[slot] = state
        else:
            slot = len(self._slot_callback)
            self._slot_callback.append(callback)
            self._slot_arg.append(arg)
            self._slot_label.append(label)
            self._slot_state.append(state)
        return slot

    def _release_slot(self, slot: int) -> None:
        self._slot_state[slot] = _FREE
        self._slot_callback[slot] = None
        self._slot_arg[slot] = _NO_ARG
        self._slot_label[slot] = ""
        self._free_slots.append(slot)

    def _cancel_timer(self, timer: RecurringTimer) -> None:
        slot = timer._slot
        if slot is None:
            return
        timer._slot = None
        if self._slot_state[slot] == _TIMER:
            self._slot_state[slot] = _CANCELLED
            self._live_events -= 1

    # -- scheduling ------------------------------------------------------------
    def _push(
        self, time: float, callback: Any, arg: Any, priority: int, label: str
    ) -> None:
        slot = self._alloc_slot(callback, arg, label, _LIVE)
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue, (time, priority, seq, slot))
        self._live_events += 1

    def schedule_call_at(
        self,
        time: float,
        callback: Callable[..., Any],
        arg: Any = _NO_ARG,
        *,
        priority: int = EventPriority.NORMAL,
        label: str = "",
    ) -> None:
        """Schedule *callback* at absolute simulated time *time*.

        Returns no handle (the event cannot be cancelled) and therefore
        allocates nothing beyond the heap tuple and a slab slot.  When
        *arg* is given the callback is invoked as ``callback(arg)``,
        which lets hot callers pass a bound method plus its argument
        instead of building a closure per event.
        """
        if time < self._now:
            raise ClockError(
                f"cannot schedule event at {time:.9f}s before now={self._now:.9f}s"
            )
        self._push(time, callback, arg, int(priority), label)

    def schedule_call_after(
        self,
        delay: float,
        callback: Callable[..., Any],
        arg: Any = _NO_ARG,
        *,
        priority: int = EventPriority.NORMAL,
        label: str = "",
    ) -> None:
        """Schedule *callback* after *delay* seconds of simulated time."""
        if delay < 0:
            raise EventError(f"delay must be >= 0, got {delay}")
        self._push(self._now + delay, callback, arg, int(priority), label)

    def schedule_recurring(
        self,
        interval: float,
        callback: Callable[[], Any],
        *,
        priority: int = EventPriority.TIMER,
        label: str = "",
    ) -> RecurringTimer:
        """Run *callback* every *interval* seconds until cancelled.

        Returns the engine-owned :class:`RecurringTimer`; call its
        ``cancel()`` method to stop the recurrence.  The first invocation
        happens at ``now + interval``; after each firing the timer
        re-arms in place.
        """
        if interval <= 0:
            raise EventError(f"interval must be > 0, got {interval}")

        timer = RecurringTimer(self, float(interval), callback, int(priority), label)
        slot = self._alloc_slot(timer, _NO_ARG, label, _TIMER)
        timer._slot = slot
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(
            self._queue, (self._now + timer.interval, timer.priority, seq, slot)
        )
        self._live_events += 1
        return timer

    # -- execution ------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next pending event.  Returns ``False`` when empty."""
        queue = self._queue
        states = self._slot_state
        pop = heapq.heappop
        while queue:
            time, _priority, _seq, slot = pop(queue)
            state = states[slot]
            if state == _LIVE:
                if time < self._now:
                    raise SimulationError(
                        f"event {self._slot_label[slot]!r} scheduled in the "
                        f"past: {time} < {self._now}"
                    )
                self._now = time
                self._events_executed += 1
                self._live_events -= 1
                callback = self._slot_callback[slot]
                arg = self._slot_arg[slot]
                self._release_slot(slot)
                if arg is _NO_ARG:
                    callback()
                else:
                    callback(arg)
                return True
            if state == _TIMER:
                if time < self._now:
                    raise SimulationError(
                        f"event {self._slot_label[slot]!r} scheduled in the "
                        f"past: {time} < {self._now}"
                    )
                self._now = time
                self._events_executed += 1
                timer: RecurringTimer = self._slot_callback[slot]
                # The firing entry is consumed: retire the slot (counter
                # and state) *before* running the callback, so a raising
                # callback — or a cancel() from inside it — leaves the
                # engine consistent.  Re-arming flips it back.
                self._live_events -= 1
                states[slot] = _CANCELLED
                rearmed = False
                try:
                    timer.callback()
                    if not timer.cancelled and not self._stopped:
                        states[slot] = _TIMER
                        self._live_events += 1
                        seq = self._seq
                        self._seq = seq + 1
                        heapq.heappush(
                            queue,
                            (self._now + timer.interval,
                             timer.priority, seq, slot),
                        )
                        rearmed = True
                finally:
                    if not rearmed:
                        # Cancelled, stopped, or the callback raised: the
                        # timer is dead (exactly as the closure-based
                        # engine left it) and the slot is recycled.
                        timer._slot = None
                        self._release_slot(slot)
                return True
            # Cancelled: discard the entry and recycle its slot.
            self._release_slot(slot)
        return False

    def run(
        self,
        *,
        until: Optional[float] = None,
        stop_when: Optional[Callable[[], bool]] = None,
    ) -> float:
        """Run events until the queue drains or a stop condition is met.

        Parameters
        ----------
        until:
            Stop once the clock would advance past this time.  Events at
            exactly ``until`` still execute.
        stop_when:
            Predicate evaluated after every event — including between
            fast-forwarded events — the run stops when it returns ``True``.
            It is evaluated once before the first event too: a run whose
            predicate already holds executes nothing and leaves the clock
            where it is, whatever else is queued.
        """
        if self._running:
            raise SimulationError("engine is already running (re-entrant run())")
        if stop_when is not None and stop_when():
            return self._now
        self._running = True
        self._stopped = False
        self._run_until = until
        self._run_stop_when = stop_when
        queue = self._queue
        states = self._slot_state
        try:
            while queue and not self._stopped:
                # Peek without popping so `until` leaves the event queued.
                head = queue[0]
                if states[head[3]] < _LIVE:
                    heapq.heappop(queue)
                    self._release_slot(head[3])
                    continue
                if until is not None and head[0] > until:
                    self._now = max(self._now, until)
                    break
                if not self.step():
                    break
                if stop_when is not None and stop_when():
                    break
            else:
                if until is not None and not self._stopped:
                    self._now = max(self._now, until)
        finally:
            self._running = False
            self._run_until = None
            self._run_stop_when = None
        return self._now

    def stop(self) -> None:
        """Request that the current :meth:`run` stops after this event."""
        self._stopped = True

    # -- fast-forward ----------------------------------------------------------
    def try_fast_forward(self, target_time: float) -> bool:
        """Advance the clock to *target_time* inline, skipping the heap.

        Granted only when executing an event at *target_time* through
        the heap could not possibly differ: the engine must be inside
        :meth:`run`, not stopped, *target_time* must not exceed the
        run's ``until`` bound, and every other live event must be
        *strictly* later (equal timestamps go through the heap so that
        priority/insertion ordering applies).  The run's ``stop_when``
        predicate is honoured at exactly the boundaries ``run()`` would
        check it, so a fast-forwarded run is observationally identical
        to a heap-dispatched one.

        On a grant the clock advances and the event counters tick; the
        caller then executes its callback inline.  On a refusal the
        caller must schedule normally.
        """
        if not self._fast_forward_enabled or not self._running or self._stopped:
            return False
        until = self._run_until
        if until is not None and target_time > until:
            return False
        stop_when = self._run_stop_when
        if stop_when is not None and stop_when():
            # Refuse the grant WITHOUT latching a stop: the predicate is
            # being evaluated mid-callback, before the caller has had a
            # chance to schedule its continuation, so a predicate that
            # inspects queue state (e.g. pending_events) may be only
            # transiently true here.  The caller falls back to normal
            # scheduling, and run() re-evaluates stop_when at the true
            # event boundary — with the continuation queued — which is
            # exactly the state heap dispatch evaluates it in.
            return False
        if target_time < self._now:
            return False
        head_time = self.peek_time()
        if head_time is not None and head_time <= target_time:
            return False
        self._now = target_time
        self._events_executed += 1
        return True

    # -- introspection ----------------------------------------------------------
    def peek_time(self) -> Optional[float]:
        """Timestamp of the next live event, or ``None`` if empty.

        Cancelled events at the head of the heap are lazily discarded
        (their slots recycled), so peeking is O(cancelled heads) instead
        of sorting the queue.
        """
        queue = self._queue
        states = self._slot_state
        while queue:
            head = queue[0]
            if states[head[3]] >= _LIVE:
                return head[0]
            heapq.heappop(queue)
            self._release_slot(head[3])
        return None
