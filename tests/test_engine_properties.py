"""Property tests for the slab engine's ordering invariants.

The engine overhaul (slab events, tuple heap entries, native recurring
timers, inline fast-forward) must preserve the discrete-event contract:

* events at the same timestamp fire in priority-then-insertion order;
* a cancelled recurring timer never fires again;
* the firing order of a set of events does not depend on the order
  they were scheduled in;
* ``run(until=...)`` leaves the head event queued, and a later ``run()``
  picks up exactly where the bounded run stopped;
* a driver that advances via :meth:`try_fast_forward` observes the same
  execution sequence as one that schedules every step through the heap.

Each property is exercised with fast-forward enabled and disabled.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.sim.engine import SimulationEngine
from repro.sim.events import EventPriority

# Times are multiples of 0.5 so that equal timestamps actually occur.
_times = st.integers(min_value=0, max_value=40).map(lambda n: n * 0.5)
_priorities = st.sampled_from(list(EventPriority))
_events = st.lists(st.tuples(_times, _priorities), min_size=1, max_size=40)


def _drive_chain(engine: SimulationEngine, delays, log, *, label="step"):
    """A VM-driver-shaped chain: fast-forward when granted, else schedule."""
    iterator = iter(delays)

    def step() -> None:
        while True:
            log.append((label, engine.now))
            try:
                delay = next(iterator)
            except StopIteration:
                return
            if engine.try_fast_forward(engine.now + delay):
                continue
            engine.schedule_call_after(
                delay, step, priority=EventPriority.WORKLOAD, label=label
            )
            return

    engine.schedule_call_after(
        0.0, step, priority=EventPriority.WORKLOAD, label=label
    )


class TestOrderingInvariants:
    @given(events=_events, fast_forward=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_same_timestamp_priority_then_insertion(self, events, fast_forward):
        engine = SimulationEngine(fast_forward=fast_forward)
        fired = []
        for insertion, (time, priority) in enumerate(events):
            engine.schedule_call_at(
                time,
                lambda t=time, p=priority, i=insertion: fired.append((t, int(p), i)),
                priority=priority,
            )
        engine.run()
        assert fired == sorted(fired)
        assert len(fired) == len(events)

    @given(
        timers=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=10).map(lambda n: n * 0.5),
                st.none() | _times,
            ),
            min_size=1,
            max_size=8,
        ),
        fast_forward=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_cancellation_never_fires(self, timers, fast_forward):
        """Interleaved timers, some cancelled (twice) by a later call: a
        cancelled timer fires up to its cancellation and never after."""
        until = 20.0
        engine = SimulationEngine(fast_forward=fast_forward)
        fired = {index: [] for index in range(len(timers))}
        for index, (interval, cancel_at) in enumerate(timers):
            timer = engine.schedule_recurring(
                interval, lambda i=index: fired[i].append(engine.now)
            )
            if cancel_at is not None:
                # A double cancel must stay a no-op.
                engine.schedule_call_at(
                    cancel_at,
                    lambda t=timer: (t.cancel(), t.cancel()),
                    priority=EventPriority.LOW,
                )
        engine.run(until=until)
        for index, (interval, cancel_at) in enumerate(timers):
            last = until if cancel_at is None else min(cancel_at, until)
            expected = []
            tick = interval
            while tick <= last:
                expected.append(tick)
                tick += interval
            assert fired[index] == expected
        armed = sum(cancel_at is None for _, cancel_at in timers)
        assert engine.pending_events == armed

    @given(
        interval=st.integers(min_value=1, max_value=5).map(float),
        cancel_at=st.integers(min_value=1, max_value=10).map(float),
        fast_forward=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_cancelled_recurring_timer_never_fires_again(
        self, interval, cancel_at, fast_forward
    ):
        engine = SimulationEngine(fast_forward=fast_forward)
        ticks = []
        timer = engine.schedule_recurring(interval, lambda: ticks.append(engine.now))
        engine.schedule_call_at(cancel_at, timer.cancel, priority=EventPriority.LOW)
        engine.run(until=100.0)
        assert all(t <= cancel_at for t in ticks)
        expected = [
            interval * k
            for k in range(1, int(cancel_at / interval) + 2)
            if interval * k <= cancel_at
        ]
        assert ticks == expected

    @given(events=_events, fast_forward=st.booleans(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_run_until_leaves_head_queued(self, events, fast_forward, data):
        engine = SimulationEngine(fast_forward=fast_forward)
        fired = []
        for time, priority in events:
            engine.schedule_call_at(
                time, lambda t=time: fired.append(t), priority=priority
            )
        times = sorted(t for t, _ in events)
        until = data.draw(
            st.sampled_from(times) | st.just(times[len(times) // 2] + 0.25)
        )
        engine.run(until=until)
        early = [t for t in times if t <= until]
        assert fired == early
        assert engine.pending_events == len(times) - len(early)
        # The remainder is still queued and runs on the next call.
        engine.run()
        assert fired == times
        assert engine.pending_events == 0

    def test_firing_order_is_independent_of_scheduling_order(self):
        """The same distinct (time, priority) set fires in one order
        however the heap was built."""
        import random

        entries = [(float(t), p) for t in range(5) for p in EventPriority]
        for seed in range(5):
            shuffled = entries[:]
            random.Random(seed).shuffle(shuffled)
            engine = SimulationEngine()
            fired = []
            for time, priority in shuffled:
                engine.schedule_call_at(
                    time,
                    lambda t=time, p=priority: fired.append((t, p)),
                    priority=priority,
                )
            engine.run()
            assert fired == sorted(entries)


class TestFastForwardEquivalence:
    @given(
        delays=st.lists(
            st.integers(min_value=0, max_value=8).map(lambda n: n * 0.25),
            min_size=1,
            max_size=30,
        ),
        background=_events,
        until=st.none() | st.integers(min_value=1, max_value=30).map(float),
    )
    @settings(max_examples=60, deadline=None)
    def test_chain_observes_identical_sequence(self, delays, background, until):
        logs = {}
        finals = {}
        for fast_forward in (False, True):
            engine = SimulationEngine(fast_forward=fast_forward)
            log = []
            _drive_chain(engine, delays, log)
            for time, priority in background:
                engine.schedule_call_at(
                    time,
                    lambda log=log, t=time, e=engine: log.append(("bg", t, e.now)),
                    priority=priority,
                )
            engine.run(until=until)
            engine.run()  # drain anything a bounded first run left queued
            logs[fast_forward] = log
            finals[fast_forward] = engine.now
        assert logs[True] == logs[False]
        assert finals[True] == finals[False]

    @given(
        delays=st.lists(
            st.integers(min_value=0, max_value=8).map(lambda n: n * 0.25),
            min_size=1,
            max_size=20,
        ),
        budget=st.integers(min_value=1, max_value=25),
    )
    @settings(max_examples=40, deadline=None)
    def test_events_executed_budget_is_identical(self, delays, budget):
        """``events_executed`` counts fast-forwarded callbacks as run()
        counts dispatched ones, so a budget on it stops both drivers
        after the same callback."""
        outcomes = {}
        for fast_forward in (False, True):
            engine = SimulationEngine(fast_forward=fast_forward)
            log = []
            _drive_chain(engine, delays, log)
            engine.run(stop_when=lambda e=engine: e.events_executed >= budget)
            outcomes[fast_forward] = (list(log), engine.events_executed, engine.now)
        assert outcomes[True] == outcomes[False]
        log, executed, _ = outcomes[True]
        assert executed == min(budget, len(delays) + 1)
        assert len(log) == executed

    def test_queue_inspecting_stop_when_is_boundary_equivalent(self):
        """A predicate that is only *transiently* true mid-callback must
        not truncate a fast-forwarded run: stop_when is always decided
        at the event boundary, with the continuation already queued."""
        logs = {}
        for fast_forward in (False, True):
            engine = SimulationEngine(fast_forward=fast_forward)
            log = []
            _drive_chain(engine, [1.0, 1.0, 1.0], log)
            # pending_events == 0 is transiently true inside the chain's
            # callback (the next step is not scheduled yet), but false
            # at every real event boundary until the chain ends.
            engine.run(stop_when=lambda: engine.pending_events == 0)
            logs[fast_forward] = log
        assert logs[True] == logs[False]
        assert [t for _, t in logs[True]] == [0.0, 1.0, 2.0, 3.0]

    @given(
        delays=st.lists(
            st.integers(min_value=0, max_value=8).map(lambda n: n * 0.25),
            min_size=1,
            max_size=30,
        ),
        stop_after=st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=40, deadline=None)
    def test_stop_when_boundary_is_respected(self, delays, stop_after):
        """stop_when halts at the same event boundary with ff on and off."""
        logs = {}
        for fast_forward in (False, True):
            engine = SimulationEngine(fast_forward=fast_forward)
            log = []
            _drive_chain(engine, delays, log)
            engine.run(stop_when=lambda log=log: len(log) >= stop_after)
            logs[fast_forward] = list(log)
        assert logs[True] == logs[False]

