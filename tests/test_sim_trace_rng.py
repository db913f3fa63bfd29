"""Tests for the trace recorder and the RNG stream factory."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import AnalysisError
from repro.sim.rng import RngFactory
from repro.sim.trace import TraceRecorder, TraceSeries


class TestTraceSeries:
    def test_append_and_arrays(self):
        series = TraceSeries("s")
        series.append(0.0, 1.0)
        series.append(1.0, 2.0)
        assert series.times.tolist() == [0.0, 1.0]
        assert series.values.tolist() == [1.0, 2.0]
        assert len(series) == 2

    def test_non_monotonic_time_rejected(self):
        series = TraceSeries("s")
        series.append(5.0, 1.0)
        with pytest.raises(AnalysisError):
            series.append(4.0, 2.0)

    def test_equal_timestamps_allowed(self):
        series = TraceSeries("s")
        series.append(1.0, 1.0)
        series.append(1.0, 2.0)
        assert len(series) == 2

    def test_value_at_step_interpolation(self):
        series = TraceSeries("s")
        series.append(0.0, 10.0)
        series.append(2.0, 20.0)
        assert series.value_at(1.5) == 10.0
        assert series.value_at(2.0) == 20.0
        assert series.value_at(100.0) == 20.0

    def test_value_at_before_first_sample_raises(self):
        series = TraceSeries("s")
        series.append(1.0, 10.0)
        with pytest.raises(AnalysisError):
            series.value_at(0.5)

    def test_empty_series_stats_raise(self):
        with pytest.raises(AnalysisError):
            TraceSeries("s").mean()
        with pytest.raises(AnalysisError):
            TraceSeries("s").max()

    def test_mean_and_max(self):
        series = TraceSeries("s")
        for t, v in [(0, 1), (1, 3), (2, 2)]:
            series.append(t, v)
        assert series.mean() == pytest.approx(2.0)
        assert series.max() == pytest.approx(3.0)


class TestTraceRecorder:
    def test_record_creates_series_on_demand(self):
        rec = TraceRecorder()
        rec.record("a", 0.0, 1.0)
        assert "a" in rec
        assert rec.get("a").values.tolist() == [1.0]

    def test_get_unknown_series_raises(self):
        with pytest.raises(AnalysisError):
            TraceRecorder().get("missing")

    def test_names_sorted(self):
        rec = TraceRecorder()
        rec.record("b", 0, 1)
        rec.record("a", 0, 1)
        assert list(rec.names()) == ["a", "b"]


class TestRngFactory:
    def test_same_name_same_stream(self):
        f = RngFactory(7)
        a = f.stream("w").random(5)
        b = f.stream("w").random(5)
        assert np.allclose(a, b)

    def test_different_names_different_streams(self):
        f = RngFactory(7)
        a = f.stream("w1").random(5)
        b = f.stream("w2").random(5)
        assert not np.allclose(a, b)

    def test_different_seeds_different_streams(self):
        a = RngFactory(1).stream("w").random(5)
        b = RngFactory(2).stream("w").random(5)
        assert not np.allclose(a, b)

    def test_child_factory_is_deterministic(self):
        a = RngFactory(3).child("x").stream("w").random(3)
        b = RngFactory(3).child("x").stream("w").random(3)
        assert np.allclose(a, b)

    @given(seed=st.integers(min_value=0, max_value=2**31), name=st.text(max_size=20))
    def test_stream_always_constructible(self, seed, name):
        gen = RngFactory(seed).stream(name)
        assert 0.0 <= float(gen.random()) < 1.0
