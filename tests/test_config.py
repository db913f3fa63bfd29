"""Tests for the simulation configuration."""

import pytest

from repro.config import (
    DiskConfig,
    GuestConfig,
    SamplingConfig,
    SimulationConfig,
    TmemConfig,
)
from repro.errors import ConfigurationError
from repro.units import MemoryUnits


class TestDiskConfig:
    def test_defaults_are_positive(self):
        cfg = DiskConfig()
        assert cfg.seek_latency_s > 0
        assert cfg.transfer_latency_s > 0

    def test_rejects_zero_seek(self):
        with pytest.raises(ConfigurationError):
            DiskConfig(seek_latency_s=0)

    def test_rejects_negative_transfer(self):
        with pytest.raises(ConfigurationError):
            DiskConfig(transfer_latency_s=-1e-6)


class TestTmemConfig:
    def test_rejects_zero_hypercall_latency(self):
        with pytest.raises(ConfigurationError):
            TmemConfig(hypercall_latency_s=0)


class TestGuestConfig:
    def test_rejects_bad_reserved_fraction(self):
        with pytest.raises(ConfigurationError):
            GuestConfig(kernel_reserved_fraction=1.0)
        with pytest.raises(ConfigurationError):
            GuestConfig(kernel_reserved_fraction=-0.1)

    def test_rejects_unknown_reclaim_algorithm(self):
        with pytest.raises(ConfigurationError):
            GuestConfig(reclaim_algorithm="random")

    def test_accepts_clock(self):
        assert GuestConfig(reclaim_algorithm="clock").reclaim_algorithm == "clock"

    def test_rejects_clock_list(self):
        # The list-based CLOCK is a test-only reference (tests/test_pfra.py).
        with pytest.raises(ConfigurationError):
            GuestConfig(reclaim_algorithm="clock-list")

    def test_default_access_engine_is_batched(self):
        assert GuestConfig().access_engine == "batched"

    def test_accepts_scalar_engine(self):
        assert GuestConfig(access_engine="scalar").access_engine == "scalar"

    def test_rejects_unknown_access_engine(self):
        for engine in ("turbo", "relaxed"):
            with pytest.raises(ConfigurationError):
                GuestConfig(access_engine=engine)


class TestSamplingConfig:
    def test_default_interval_is_one_second(self):
        # The paper fixes the sampling interval at one second.
        assert SamplingConfig().interval_s == pytest.approx(1.0)

    def test_rejects_zero_interval(self):
        with pytest.raises(ConfigurationError):
            SamplingConfig(interval_s=0)


class TestSimulationConfig:
    def test_tmem_put_latency_includes_copy(self):
        cfg = SimulationConfig()
        assert cfg.tmem_put_latency_s > cfg.tmem.hypercall_latency_s

    def test_failed_put_is_cheaper_than_successful_put(self):
        cfg = SimulationConfig()
        assert cfg.tmem_failed_put_latency_s < cfg.tmem_put_latency_s

    def test_coarse_pages_scale_copy_latency(self):
        fine = SimulationConfig()
        coarse = SimulationConfig(units=MemoryUnits(page_bytes=64 * 4096))
        assert coarse.tmem_put_latency_s > fine.tmem_put_latency_s

    def test_disk_latency_grows_with_pages(self):
        cfg = SimulationConfig()
        assert cfg.disk_latency_s(10) > cfg.disk_latency_s(1)

    def test_disk_latency_rejects_zero_pages(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig().disk_latency_s(0)

    def test_latency_ordering_tmem_much_cheaper_than_disk(self):
        """The relative cost ordering the paper relies on must hold."""
        cfg = SimulationConfig()
        assert cfg.tmem_put_latency_s * 10 < cfg.disk_latency_s(1)

    def test_with_overrides_replaces_seed(self):
        cfg = SimulationConfig()
        assert cfg.with_overrides(seed=7).seed == 7
        assert cfg.seed != 7 or cfg.seed == 2019

    def test_describe_contains_key_fields(self):
        info = SimulationConfig().describe()
        assert "page_bytes" in info
        assert "sampling_interval_s" in info
