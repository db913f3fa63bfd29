"""Shared fixtures for the test suite.

Most tests build small systems by hand; these fixtures provide the common
building blocks (a simulation engine, a small hypervisor with a tmem pool,
a registered VM with a frontswap client) at sizes small enough to keep the
whole suite fast.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.config import SimulationConfig
from repro.hypervisor.xen import Hypervisor
from repro.sim.engine import SimulationEngine
from repro.sim.rng import RngFactory
from repro.units import MemoryUnits

#: A deeper run of the properties that leave ``max_examples`` unpinned,
#: selected with ``pytest --hypothesis-profile=nightly``.  The default
#: profile is untouched, so an ordinary run is unchanged.
settings.register_profile("nightly", max_examples=5000)


@pytest.fixture
def engine() -> SimulationEngine:
    return SimulationEngine()


@pytest.fixture
def config() -> SimulationConfig:
    """Default configuration with true 4 KiB pages."""
    return SimulationConfig()


@pytest.fixture
def coarse_config() -> SimulationConfig:
    """Coarse-page configuration as used by the scenario reproductions."""
    return SimulationConfig(units=MemoryUnits(page_bytes=256 * 1024))


@pytest.fixture
def rng() -> np.random.Generator:
    return RngFactory(1234).stream("tests")


@pytest.fixture
def hypervisor(engine, config) -> Hypervisor:
    """A hypervisor with 4096 pages of host memory and 512 pages of tmem."""
    return Hypervisor(
        engine,
        config,
        host_memory_pages=4096,
        tmem_pool_pages=512,
    )


@pytest.fixture
def registered_vm(hypervisor):
    """A 256-page VM registered with tmem (returns its DomainRecord)."""
    record = hypervisor.create_domain("vm-test", ram_pages=256)
    hypervisor.register_tmem_client(record.vm_id, frontswap=True)
    return record
