"""Simulation-wide configuration.

The configuration is split into small frozen dataclasses, one per
subsystem, grouped under :class:`SimulationConfig`.  Everything is
expressed either in simulated pages (capacity) or in seconds (time), and
latency defaults are calibrated so that the relative cost ordering the
paper relies on holds:

``DRAM access  <<  tmem page copy (hypercall)  <<  disk swap I/O``

The absolute values are not meant to match the authors' testbed (we do not
have it); they are chosen from publicly documented orders of magnitude:
a tmem put/get is a hypercall plus a 4 KiB memcpy (microseconds), while a
swap to a virtual disk backed by a laptop hard drive is milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Mapping

from .errors import ConfigurationError
from .units import MemoryUnits

__all__ = [
    "DiskConfig",
    "TmemConfig",
    "GuestConfig",
    "SamplingConfig",
    "SimulationConfig",
]


def _require_positive(name: str, value: float) -> None:
    if value <= 0:
        raise ConfigurationError(f"{name} must be > 0, got {value}")


def _require_non_negative(name: str, value: float) -> None:
    if value < 0:
        raise ConfigurationError(f"{name} must be >= 0, got {value}")


@dataclass(frozen=True)
class DiskConfig:
    """Latency/queueing model of the virtual disk used for guest swap.

    The disk is modelled as a single FIFO server.  A request of ``n``
    4 KiB-equivalent pages is serviced in
    ``seek_latency_s + n * transfer_latency_s`` once it reaches the head of
    the queue.  These defaults approximate a consumer SATA hard drive seen
    through a virtualized block device: a few milliseconds of seek plus
    tens of microseconds of transfer per 4 KiB block.
    """

    seek_latency_s: float = 2.0e-3
    transfer_latency_s: float = 40.0e-6
    read_write_asymmetry: float = 1.0

    def __post_init__(self) -> None:
        _require_positive("seek_latency_s", self.seek_latency_s)
        _require_positive("transfer_latency_s", self.transfer_latency_s)
        _require_positive("read_write_asymmetry", self.read_write_asymmetry)


@dataclass(frozen=True)
class TmemConfig:
    """Cost model of tmem hypercalls (put/get/flush).

    A tmem operation is a synchronous hypercall that copies one page
    between guest memory and the hypervisor-owned tmem pool.  The paper
    does not report per-operation latencies; we use the commonly cited
    order of magnitude of a few microseconds per 4 KiB page copy plus a
    fixed hypercall entry/exit cost.
    """

    hypercall_latency_s: float = 2.0e-6
    copy_latency_per_xen_page_s: float = 1.0e-6
    flush_latency_s: float = 1.0e-6

    def __post_init__(self) -> None:
        _require_positive("hypercall_latency_s", self.hypercall_latency_s)
        _require_positive(
            "copy_latency_per_xen_page_s", self.copy_latency_per_xen_page_s
        )
        _require_positive("flush_latency_s", self.flush_latency_s)


@dataclass(frozen=True)
class GuestConfig:
    """Guest kernel memory-management model parameters."""

    #: Fraction of guest RAM reserved for the kernel and the page cache
    #: floor; workload pages can only occupy the remainder.
    kernel_reserved_fraction: float = 0.10
    #: Cost of a minor fault / resident page access batch, per page.
    resident_access_latency_s: float = 2.0e-8
    #: CPU cost of handling one major fault excluding the backing I/O.
    fault_overhead_s: float = 5.0e-6
    #: Page-frame reclaim algorithm: "lru" or "clock".
    reclaim_algorithm: str = "lru"
    #: Burst-servicing engine of the guest kernel: "batched" classifies a
    #: whole access burst at once and issues batched tmem hypercalls;
    #: "scalar" is the page-at-a-time reference implementation.  Both
    #: produce bit-identical statistics, traces and scenario results.
    access_engine: str = "batched"

    def __post_init__(self) -> None:
        if not (0.0 <= self.kernel_reserved_fraction < 1.0):
            raise ConfigurationError(
                "kernel_reserved_fraction must be in [0, 1), got "
                f"{self.kernel_reserved_fraction}"
            )
        _require_non_negative(
            "resident_access_latency_s", self.resident_access_latency_s
        )
        _require_non_negative("fault_overhead_s", self.fault_overhead_s)
        if self.reclaim_algorithm not in ("lru", "clock"):
            raise ConfigurationError(
                f"unknown reclaim_algorithm {self.reclaim_algorithm!r}"
            )
        if self.access_engine not in ("batched", "scalar"):
            raise ConfigurationError(
                f"unknown access_engine {self.access_engine!r}; "
                "expected 'batched' or 'scalar'"
            )

    def usable_ram_pages(self, ram_pages: int) -> int:
        """Pages of *ram_pages* left to workload pages (at least one)."""
        return max(1, ram_pages - int(ram_pages * self.kernel_reserved_fraction))


@dataclass(frozen=True)
class SamplingConfig:
    """Statistics sampling and policy invocation cadence.

    The paper fixes the sampling interval at one second: the hypervisor
    raises a VIRQ every second, the TKM relays the statistics to the MM,
    and the MM may push new targets back.
    """

    interval_s: float = 1.0
    #: One-way latency of the VIRQ + netlink relay (hypervisor -> MM).
    relay_latency_s: float = 100.0e-6
    #: Latency of the target write-back hypercall (MM -> hypervisor).
    writeback_latency_s: float = 50.0e-6

    def __post_init__(self) -> None:
        _require_positive("interval_s", self.interval_s)
        _require_non_negative("relay_latency_s", self.relay_latency_s)
        _require_non_negative("writeback_latency_s", self.writeback_latency_s)


@dataclass(frozen=True)
class SimulationConfig:
    """Top-level simulation configuration."""

    units: MemoryUnits = field(default_factory=MemoryUnits)
    disk: DiskConfig = field(default_factory=DiskConfig)
    tmem: TmemConfig = field(default_factory=TmemConfig)
    guest: GuestConfig = field(default_factory=GuestConfig)
    sampling: SamplingConfig = field(default_factory=SamplingConfig)
    #: Seed for all stochastic workload generators.
    seed: int = 2019
    #: Hard wall on simulated time, to guard against runaway scenarios.
    max_simulated_time_s: float = 3600.0

    def __post_init__(self) -> None:
        _require_positive("max_simulated_time_s", self.max_simulated_time_s)

    # -- derived latencies -------------------------------------------------
    @property
    def tmem_put_latency_s(self) -> float:
        """Latency of one successful tmem put for one simulated page."""
        return self.tmem.hypercall_latency_s + self.units.scale_latency(
            self.tmem.copy_latency_per_xen_page_s
        )

    @property
    def tmem_get_latency_s(self) -> float:
        """Latency of one successful tmem get for one simulated page."""
        return self.tmem_put_latency_s

    @property
    def tmem_flush_latency_s(self) -> float:
        return self.tmem.hypercall_latency_s + self.tmem.flush_latency_s

    @property
    def tmem_failed_put_latency_s(self) -> float:
        """A failed put is a hypercall that returns without copying."""
        return self.tmem.hypercall_latency_s

    def disk_latency_s(self, pages: int, *, write: bool = False) -> float:
        """Service time of a disk request of *pages* simulated pages."""
        if pages <= 0:
            raise ConfigurationError(f"disk request must move >= 1 page, got {pages}")
        xen_pages = pages * self.units.xen_pages_per_page
        latency = (
            self.disk.seek_latency_s + xen_pages * self.disk.transfer_latency_s
        )
        if write:
            latency *= self.disk.read_write_asymmetry
        return latency

    # -- convenience -------------------------------------------------------
    def with_overrides(self, **kwargs: Any) -> "SimulationConfig":
        """Return a copy with top-level fields replaced."""
        return replace(self, **kwargs)

    def describe(self) -> Mapping[str, Any]:
        """A flat, human-readable summary used by the CLI and reports."""
        return {
            "page_bytes": self.units.page_bytes,
            "xen_pages_per_page": self.units.xen_pages_per_page,
            "tmem_put_latency_s": self.tmem_put_latency_s,
            "tmem_failed_put_latency_s": self.tmem_failed_put_latency_s,
            "disk_seek_latency_s": self.disk.seek_latency_s,
            "disk_transfer_latency_per_4k_s": self.disk.transfer_latency_s,
            "sampling_interval_s": self.sampling.interval_s,
            "seed": self.seed,
        }
