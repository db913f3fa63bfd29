"""Tests for the discrete-event simulation engine."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ClockError, EventError, SimulationError
from repro.sim.engine import SimulationEngine
from repro.sim.events import EventPriority


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert SimulationEngine().now == 0.0

    def test_schedule_and_run_single_event(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule_call_at(5.0, lambda: fired.append(engine.now))
        engine.run()
        assert fired == [5.0]
        assert engine.now == 5.0

    def test_schedule_call_after_uses_relative_delay(self):
        engine = SimulationEngine()
        engine.schedule_call_at(2.0, lambda: engine.schedule_call_after(3.0, lambda: None))
        engine.run()
        assert engine.now == pytest.approx(5.0)

    def test_cannot_schedule_in_the_past(self):
        engine = SimulationEngine()
        engine.schedule_call_at(10.0, lambda: None)
        engine.run()
        with pytest.raises(ClockError):
            engine.schedule_call_at(5.0, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(EventError):
            SimulationEngine().schedule_call_after(-1.0, lambda: None)

    def test_events_run_in_time_order(self):
        engine = SimulationEngine()
        order = []
        engine.schedule_call_at(3.0, lambda: order.append(3))
        engine.schedule_call_at(1.0, lambda: order.append(1))
        engine.schedule_call_at(2.0, lambda: order.append(2))
        engine.run()
        assert order == [1, 2, 3]

    def test_same_time_orders_by_priority_then_fifo(self):
        engine = SimulationEngine()
        order = []
        engine.schedule_call_at(1.0, lambda: order.append("n1"), priority=EventPriority.NORMAL)
        engine.schedule_call_at(1.0, lambda: order.append("t"), priority=EventPriority.TIMER)
        engine.schedule_call_at(1.0, lambda: order.append("n2"), priority=EventPriority.NORMAL)
        engine.run()
        assert order == ["t", "n1", "n2"]

    def test_cancelled_event_does_not_run(self):
        """A timer cancelled before its first firing never runs."""
        engine = SimulationEngine()
        fired = []
        timer = engine.schedule_recurring(1.0, lambda: fired.append(engine.now))
        timer.cancel()
        engine.run(until=5.0)
        assert fired == []
        assert engine.events_executed == 0
        assert engine.pending_events == 0

    def test_pending_events_counts_live_events_only(self):
        """An armed timer counts once, before and after it re-arms; a
        cancelled one not at all."""
        engine = SimulationEngine()
        engine.schedule_call_at(1.0, lambda: None)
        engine.schedule_call_at(5.0, lambda: None)
        engine.schedule_recurring(2.0, lambda: None)
        engine.schedule_recurring(3.0, lambda: None).cancel()
        assert engine.pending_events == 3
        engine.run(until=2.5)  # the call at 1.0 ran, the timer re-armed
        assert engine.pending_events == 2


class TestRunControls:
    def test_until_stops_before_later_events(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule_call_at(1.0, lambda: fired.append(1))
        engine.schedule_call_at(10.0, lambda: fired.append(10))
        engine.run(until=5.0)
        assert fired == [1]
        assert engine.now == pytest.approx(5.0)
        # The 10.0 event is still queued and runs on the next call.
        engine.run()
        assert fired == [1, 10]

    def test_event_exactly_at_until_still_runs(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule_call_at(5.0, lambda: fired.append(5))
        engine.run(until=5.0)
        assert fired == [5]

    def test_stop_when_predicate(self):
        engine = SimulationEngine()
        fired = []
        for t in (1.0, 2.0, 3.0):
            engine.schedule_call_at(t, lambda t=t: fired.append(t))
        engine.run(stop_when=lambda: len(fired) >= 2)
        assert fired == [1.0, 2.0]

    def test_stop_when_that_already_holds_runs_nothing(self):
        """Nothing runs and no time passes, with or without a queue."""
        for queued in (False, True):
            engine = SimulationEngine()
            fired = []
            if queued:
                engine.schedule_call_at(1.0, lambda: fired.append(1))
            assert engine.run(until=10.0, stop_when=lambda: True) == 0.0
            assert fired == [] and engine.now == 0.0

    def test_stop_requests_halt(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule_call_at(1.0, lambda: (fired.append(1), engine.stop()))
        engine.schedule_call_at(2.0, lambda: fired.append(2))
        engine.run()
        assert fired == [1]

    def test_run_is_not_reentrant(self):
        engine = SimulationEngine()

        def nested():
            with pytest.raises(SimulationError):
                engine.run()

        engine.schedule_call_at(1.0, nested)
        engine.run()


class TestRecurring:
    def test_recurring_fires_at_interval(self):
        engine = SimulationEngine()
        times = []
        engine.schedule_recurring(1.0, lambda: times.append(engine.now))
        engine.run(until=3.5)
        assert times == [1.0, 2.0, 3.0]

    def test_recurring_cancel_stops_future_firings(self):
        engine = SimulationEngine()
        times = []
        timer = engine.schedule_recurring(1.0, lambda: times.append(engine.now))
        engine.schedule_call_at(2.5, timer.cancel)
        engine.run(until=10.0)
        assert times == [1.0, 2.0]

    def test_recurring_rejects_non_positive_interval(self):
        with pytest.raises(EventError):
            SimulationEngine().schedule_recurring(0.0, lambda: None)

    def test_events_executed_counter(self):
        engine = SimulationEngine()
        engine.schedule_recurring(1.0, lambda: None)
        engine.run(until=4.5)
        assert engine.events_executed == 4

    def test_raising_callback_retires_timer_consistently(self):
        """A timer whose callback raises must not leak the live count."""
        engine = SimulationEngine()

        def boom():
            raise RuntimeError("tick failed")

        timer = engine.schedule_recurring(1.0, boom)
        with pytest.raises(RuntimeError):
            engine.run()
        # The timer is dead, the counters are consistent, and the engine
        # remains usable.
        assert engine.pending_events == 0
        timer.cancel()  # no-op, must not corrupt anything
        assert engine.pending_events == 0
        fired = []
        engine.schedule_call_at(2.0, lambda: fired.append(engine.now))
        engine.run()
        assert fired == [2.0]

    def test_rearmed_timer_queues_behind_calls_made_before_it_fired(self):
        """A timer re-arms with a fresh heap entry: at a shared timestamp
        and priority it follows the calls scheduled before it fired and
        precedes those scheduled after."""
        engine = SimulationEngine()
        order = []
        engine.schedule_recurring(
            1.0, lambda: order.append(("tick", engine.now)),
            priority=EventPriority.NORMAL,
        )
        engine.schedule_call_at(2.0, lambda: order.append(("early", engine.now)))
        engine.schedule_call_at(
            1.5,
            lambda: engine.schedule_call_at(
                2.0, lambda: order.append(("late", engine.now))
            ),
        )
        engine.run(until=2.0)
        assert order == [
            ("tick", 1.0), ("early", 2.0), ("tick", 2.0), ("late", 2.0),
        ]

    def test_cancel_from_inside_timer_callback(self):
        engine = SimulationEngine()
        ticks = []

        def tick():
            ticks.append(engine.now)
            if len(ticks) == 2:
                timer.cancel()

        timer = engine.schedule_recurring(1.0, tick)
        engine.run(until=10.0)
        assert ticks == [1.0, 2.0]
        assert engine.pending_events == 0


class TestEventOrdering:
    @given(st.lists(st.floats(min_value=0, max_value=1e6,
                              allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=50))
    def test_clock_is_monotonic_for_any_schedule(self, times):
        engine = SimulationEngine()
        observed = []
        for t in times:
            engine.schedule_call_at(t, lambda: observed.append(engine.now))
        engine.run()
        assert observed == sorted(observed)
        assert len(observed) == len(times)


class TestIntrospectionFastPaths:
    def test_peek_time_skips_cancelled_timers(self):
        engine = SimulationEngine()
        early = engine.schedule_recurring(1.0, lambda: None)
        mid = engine.schedule_recurring(2.0, lambda: None)
        engine.schedule_call_at(3.0, lambda: None, label="live")
        early.cancel()
        mid.cancel()
        assert engine.peek_time() == 3.0
        assert engine.pending_events == 1

    def test_peek_time_empty_after_all_cancelled(self):
        engine = SimulationEngine()
        timer = engine.schedule_recurring(1.0, lambda: None)
        timer.cancel()
        assert engine.peek_time() is None
        assert engine.pending_events == 0

    def test_pending_events_is_a_live_counter(self):
        engine = SimulationEngine()
        for i in range(4):
            engine.schedule_call_at(float(i + 1), lambda: None)
        timer = engine.schedule_recurring(10.0, lambda: None)
        assert engine.pending_events == 5
        timer.cancel()
        timer.cancel()  # double-cancel must not double-decrement
        assert engine.pending_events == 4
        engine.step()
        assert engine.pending_events == 3
        engine.run()
        assert engine.pending_events == 0

    def test_cancel_after_execution_does_not_corrupt_counter(self):
        """A timer retired by stop() inside its callback is not re-armed;
        cancelling it afterwards leaves the live count alone."""
        engine = SimulationEngine()
        ticks = []

        def tick():
            ticks.append(engine.now)
            engine.stop()

        timer = engine.schedule_recurring(1.0, tick)
        engine.schedule_call_at(5.0, lambda: None)
        engine.run()
        assert ticks == [1.0]
        assert engine.pending_events == 1
        timer.cancel()
        assert engine.pending_events == 1
        engine.run()
        assert ticks == [1.0]
        assert engine.pending_events == 0
