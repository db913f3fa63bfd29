"""Workload abstractions.

A workload yields :class:`WorkloadStep` records.  Each step models a short
slice of application execution: some pure CPU time, a burst of page
accesses, and optionally pages to free.  Steps also carry the name of the
phase they belong to, which the VM driver uses both for reporting
(per-phase running times, e.g. per-allocation-size times for usemem) and
for cross-VM triggers (the usemem scenario starts VM3 when VM1/VM2 reach
their 640 MB phase).

Workload instances are single-use iterators; scenario code constructs a
fresh instance per run via the workload's factory.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import ClassVar, Iterator, Optional, Sequence

import numpy as np

from ..errors import WorkloadError
from ..units import MemoryUnits

__all__ = ["WorkloadStep", "WorkloadPhase", "Workload"]


@dataclass(frozen=True)
class WorkloadStep:
    """One slice of workload execution."""

    #: Pure CPU time of the slice (no memory stalls), in seconds.
    compute_time_s: float
    #: Guest page numbers accessed during the slice, in access order.
    pages: Sequence[int]
    #: Pages freed at the end of the slice (e.g. a phase's scratch data).
    frees: Sequence[int] = ()
    #: Phase label (used for per-phase timing and scenario triggers).
    phase: str = ""
    #: Whether the accesses dirty the pages (always true for anon memory).
    write: bool = True

    def __post_init__(self) -> None:
        if self.compute_time_s < 0:
            raise WorkloadError(
                f"compute_time_s must be >= 0, got {self.compute_time_s}"
            )


@dataclass
class WorkloadPhase:
    """Description of one phase, for documentation and tests."""

    name: str
    description: str = ""
    expected_steps: Optional[int] = None


class Workload(ABC):
    """Base class for every workload model.

    A subclass becomes a workload kind with
    :func:`~repro.workloads.registry.register_workload_kind` (or the
    ``@WORKLOADS.register(kind, param_docs=..., bounds=...)`` decorator),
    which documents its constructor parameters and checks them on every
    construction.
    """

    #: The registered kind ("usemem", "in-memory-analytics", ...), set
    #: by :func:`~repro.workloads.registry.register_workload_kind`.
    name: str = "workload"

    #: True for workloads whose accesses are clean file reads served via
    #: the cleancache (ephemeral tmem) path.  The scenario runner enables
    #: cleancache on any VM that runs such a workload.
    uses_cleancache: ClassVar[bool] = False

    def __init__(self, *, units: MemoryUnits, rng: np.random.Generator) -> None:
        self._units = units
        self._rng = rng
        self._exhausted = False

    @property
    def units(self) -> MemoryUnits:
        return self._units

    # -- the contract -------------------------------------------------------
    @abstractmethod
    def generate_steps(self) -> Iterator[WorkloadStep]:
        """Yield the workload's steps in execution order."""

    def phases(self) -> Sequence[WorkloadPhase]:
        """Describe the workload's phases (informational)."""
        return ()

    def peak_footprint_pages(self) -> int:
        """Upper bound on the number of distinct pages the workload touches.

        Used by scenario validation to check that the configured guest swap
        area cannot overflow.
        """
        return 0

    # -- iteration helpers ------------------------------------------------------
    def __iter__(self) -> Iterator[WorkloadStep]:
        if self._exhausted:
            raise WorkloadError(
                f"workload {self.name!r} instances are single-use; "
                "construct a new instance per run"
            )
        self._exhausted = True
        return self.generate_steps()

    # -- shared helpers for subclasses -----------------------------------------------
    @staticmethod
    def _chunk(pages: np.ndarray, chunk_size: int) -> Iterator[np.ndarray]:
        """Split an access sequence into bursts of at most *chunk_size*."""
        if chunk_size <= 0:
            raise WorkloadError(f"chunk_size must be > 0, got {chunk_size}")
        for start in range(0, len(pages), chunk_size):
            yield pages[start : start + chunk_size]
