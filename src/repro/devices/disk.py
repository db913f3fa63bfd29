"""Virtual disk model used as the guest swap backing store.

When a tmem put fails (no capacity, or the VM is over its target), the
guest must write the evicted page to its swap device, and read it back on
the next fault.  The performance results in the paper are driven entirely
by how many of these slow disk accesses each policy avoids, so the disk
model needs queueing (concurrent VMs share the physical device through the
host) and realistic seek/transfer costs, but nothing more elaborate.

The device is a single FIFO server: a request arriving at time ``t`` when
the device is busy until ``b`` starts service at ``max(t, b)`` and occupies
the device for ``seek + pages * transfer`` seconds.

That FIFO rule, with the float operations of :meth:`VirtualDisk._service`
in their order, is also a contract with the batched guest engine: its
replay loop (``GuestKernel._replay_burst``) applies it inline to each
single-page swap request of a burst and hands the burst's end state
back through :meth:`VirtualDisk.commit_burst`, so the
disk sees the same queue and totals as under the scalar engine, whose
page-at-a-time :meth:`read`/:meth:`write` calls are the reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import DiskConfig, SimulationConfig
from ..errors import ConfigurationError

__all__ = ["DiskStats", "VirtualDisk"]


@dataclass
class DiskStats:
    """Aggregate counters for one virtual disk."""

    reads: int = 0
    writes: int = 0
    pages_read: int = 0
    pages_written: int = 0
    busy_time_s: float = 0.0
    total_wait_time_s: float = 0.0
    per_vm_pages_read: dict[int, int] = field(default_factory=dict)
    per_vm_pages_written: dict[int, int] = field(default_factory=dict)

    @property
    def total_requests(self) -> int:
        return self.reads + self.writes

    def mean_latency_s(self) -> float:
        if self.total_requests == 0:
            return 0.0
        return self.total_wait_time_s / self.total_requests


class VirtualDisk:
    """FIFO-queued swap disk shared by every VM on the node."""

    def __init__(self, config: SimulationConfig) -> None:
        self._config = config
        self._disk_cfg: DiskConfig = config.disk
        self._busy_until = 0.0
        # Single-page requests dominate the swap path; cache their service
        # time so the hot loop skips the per-call config property chain.
        self._read_service_1p = config.disk_latency_s(1, write=False)
        self._write_service_1p = config.disk_latency_s(1, write=True)
        self.stats = DiskStats()

    @property
    def busy_until(self) -> float:
        """Simulated time at which the device becomes idle."""
        return self._busy_until

    @property
    def read_service_1p(self) -> float:
        """Service time of a single-page read, in seconds."""
        return self._read_service_1p

    @property
    def write_service_1p(self) -> float:
        """Service time of a single-page write, in seconds."""
        return self._write_service_1p

    def commit_burst(
        self,
        busy_until: float,
        busy_time_s: float,
        total_wait_time_s: float,
        vm_id: int,
        reads: int,
        writes: int,
    ) -> None:
        """Apply the end state of single-page requests replayed inline.

        The caller started from :attr:`busy_until` and the two float totals
        in :attr:`stats`, served *reads* single-page reads and *writes*
        single-page writes for *vm_id* by the FIFO rule of the module
        docstring, and hands back the new queue end and totals.  The
        integer counters add up here; a VM gets a per-VM entry only when
        its count is non-zero, as :meth:`read`/:meth:`write` would give it.
        """
        self._busy_until = busy_until
        stats = self.stats
        stats.busy_time_s = busy_time_s
        stats.total_wait_time_s = total_wait_time_s
        if reads:
            stats.reads += reads
            stats.pages_read += reads
            per_vm = stats.per_vm_pages_read
            per_vm[vm_id] = per_vm.get(vm_id, 0) + reads
        if writes:
            stats.writes += writes
            stats.pages_written += writes
            per_vm = stats.per_vm_pages_written
            per_vm[vm_id] = per_vm.get(vm_id, 0) + writes

    def _service(self, now: float, pages: int, *, write: bool) -> float:
        if pages <= 0:
            raise ConfigurationError(f"disk request must move >= 1 page, got {pages}")
        start = max(now, self._busy_until)
        if pages == 1:
            service_time = self._write_service_1p if write else self._read_service_1p
        else:
            service_time = self._config.disk_latency_s(pages, write=write)
        completion = start + service_time
        self._busy_until = completion
        latency = completion - now
        self.stats.busy_time_s += service_time
        self.stats.total_wait_time_s += latency
        return latency

    def read(self, now: float, pages: int, *, vm_id: int | None = None) -> float:
        """Submit a swap-in read; returns the request latency in seconds."""
        latency = self._service(now, pages, write=False)
        self.stats.reads += 1
        self.stats.pages_read += pages
        if vm_id is not None:
            self.stats.per_vm_pages_read[vm_id] = (
                self.stats.per_vm_pages_read.get(vm_id, 0) + pages
            )
        return latency

    def write(self, now: float, pages: int, *, vm_id: int | None = None) -> float:
        """Submit a swap-out write; returns the request latency in seconds."""
        latency = self._service(now, pages, write=True)
        self.stats.writes += 1
        self.stats.pages_written += pages
        if vm_id is not None:
            self.stats.per_vm_pages_written[vm_id] = (
                self.stats.per_vm_pages_written.get(vm_id, 0) + pages
            )
        return latency

    def utilization(self, now: float) -> float:
        """Fraction of elapsed simulated time the device was busy."""
        if now <= 0:
            return 0.0
        return min(1.0, self.stats.busy_time_s / now)
