"""Micro-benchmarks of the simulation engine itself.

The event loop uses a slab of recycled slots, tuple heap entries, native
recurring timers and an inline fast-forward path instead of per-event
dataclass allocation and rescheduling closures.  These checks time four
engine cases and assert the throughput *shape* that design guarantees:

* every case clears a conservative absolute floor (so a CI host that is
  10x slower than a laptop still passes, but an accidental O(n^2) or a
  re-introduced per-event allocation regression fails loudly);
* fast-forwarding a chain is at least as fast as dispatching it through
  the heap — skipping the heap must never cost more than using it;
* a native recurring timer beats one-shot rescheduling of the same
  chain, which is the entire point of re-arming in place.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Tuple

import pytest

from conftest import print_section

from repro.sim.engine import SimulationEngine

#: Conservative events/sec floor for every engine case.  The slowest
#: case (schedule-fire) runs ~300k-600k events/s on a shared 2-core VM;
#: 30k leaves an order of magnitude for slow CI hosts.
ENGINE_FLOOR_EVENTS_PER_S = 30_000

_EVENTS = 20_000


def _nothing() -> None:
    pass


def _schedule_fire(events: int) -> int:
    """Schedule and dispatch one-shot events through the heap."""
    engine = SimulationEngine()
    schedule = engine.schedule_call_at
    for i in range(events):
        schedule(float(i), _nothing)
    engine.run()
    return engine.events_executed


def _self_reschedule(events: int) -> int:
    """An event chain that reschedules itself from inside the callback:
    the VM driver's step loop with fast-forward disabled."""
    engine = SimulationEngine(fast_forward=False)
    remaining = [events]

    def chain() -> None:
        remaining[0] -= 1
        if remaining[0]:
            engine.schedule_call_after(1.0, chain)

    engine.schedule_call_after(1.0, chain)
    engine.run()
    return engine.events_executed


def _fast_forward(events: int) -> int:
    """The same chain with fast-forward on: the heap is never touched."""
    engine = SimulationEngine(fast_forward=True)
    remaining = [events]

    def chain() -> None:
        try_ff = engine.try_fast_forward
        while remaining[0] > 1:
            remaining[0] -= 1
            if not try_ff(engine.now + 1.0):
                engine.schedule_call_after(1.0, chain)
                return
        remaining[0] -= 1

    engine.schedule_call_after(1.0, chain)
    engine.run()
    return engine.events_executed


def _recurring(events: int) -> int:
    """One native periodic timer firing *events* times."""
    engine = SimulationEngine()
    timer = engine.schedule_recurring(1.0, _nothing)
    engine.run(until=float(events))
    timer.cancel()
    return engine.events_executed


ENGINE_CASES: Dict[str, Callable[[int], int]] = {
    "schedule-fire": _schedule_fire,
    "self-reschedule": _self_reschedule,
    "fast-forward": _fast_forward,
    "recurring": _recurring,
}


def _measure(case: Callable[[int], int], repeats: int = 3) -> Tuple[int, float]:
    """(events executed, events/s) of one case, best of *repeats*."""
    best = float("inf")
    executed = 0
    for _ in range(repeats):
        start = time.perf_counter()
        executed = case(_EVENTS)
        best = min(best, time.perf_counter() - start)
    return executed, executed / best


@pytest.fixture(scope="module")
def records() -> Dict[str, Tuple[int, float]]:
    """One shared measurement pass for every assertion in this module."""
    return {name: _measure(case) for name, case in ENGINE_CASES.items()}


def test_engine_suite_shape(records):
    print_section("Engine micro-benchmark (events/sec)")
    for case, (_, events_per_s) in records.items():
        print(f"  {case:16s} {events_per_s:12.0f} ev/s")
    for case, (events, events_per_s) in records.items():
        assert events > 0, case
        assert events_per_s >= ENGINE_FLOOR_EVENTS_PER_S, (
            f"{case}: {events_per_s:.0f} events/s fell below the "
            f"{ENGINE_FLOOR_EVENTS_PER_S} floor"
        )


def test_fast_forward_not_slower_than_heap_dispatch(records):
    heap = records["self-reschedule"][1]
    inline = records["fast-forward"][1]
    # 0.9 tolerates scheduler noise; structurally inline should be ~3x.
    assert inline >= 0.9 * heap, (
        f"fast-forward ({inline:.0f} ev/s) slower than heap dispatch "
        f"({heap:.0f} ev/s)"
    )


def test_recurring_timer_beats_one_shot_rescheduling(records):
    rescheduling = records["self-reschedule"][1]
    recurring = records["recurring"][1]
    # 0.9 tolerates scheduler noise on shared runners; structurally the
    # in-place re-arm is ~2.5x the one-shot chain.
    assert recurring >= 0.9 * rescheduling, (
        f"native recurring timer ({recurring:.0f} ev/s) is not faster than "
        f"re-scheduling one-shots ({rescheduling:.0f} ev/s)"
    )
