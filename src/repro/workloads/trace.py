"""Trace-replay workload: re-issue a recorded page-access trace.

The ``trace`` workload kind replays a JSONL trace file in which each line
is one :class:`~repro.workloads.base.WorkloadStep`::

    {"compute_s": 0.032, "pages": [0, 1, 2], "frees": [], "phase": "load",
     "write": true}

Page numbers (``pages`` and ``frees``) are integers in ``[0, 2**32)``.
An optional first line carrying a ``"meta"`` key describes the recording
(recording tool, source workload, seed) and is skipped by the replayer.
Traces are produced by ``smartmem trace record``, which can dump either a
synthetic workload's step stream or the exact stream a named scenario VM
would issue; they can equally come from an external tool that logs real
guest accesses, which is the bridge between the simulator's synthetic
benchmarks and recorded production behaviour.

Replay is deterministic by construction — the trace *is* the access
sequence — so trace-driven scenarios fingerprint-pin exactly like the
synthetic ones.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence, Union

import numpy as np

from ..errors import WorkloadError
from ..units import MemoryUnits
from .base import Workload, WorkloadPhase, WorkloadStep
from .registry import WORKLOADS

__all__ = ["TraceWorkload", "load_trace_steps", "dump_trace_steps"]

#: JSONL keys of one recorded step.
_STEP_KEYS = frozenset({"compute_s", "pages", "frees", "phase", "write"})

#: Page numbers are 32-bit, the bound remote tmem's spill namespace
#: assumes (:mod:`repro.hypervisor.remote_tmem`).
_PAGE_LIMIT = 2 ** 32


def load_trace_steps(path: Union[str, Path]) -> List[WorkloadStep]:
    """Parse a JSONL trace file into workload steps.

    Raises :class:`WorkloadError` with the offending line number on
    malformed input.
    """
    steps: List[WorkloadStep] = []
    trace_path = Path(path)
    try:
        lines = trace_path.read_text().splitlines()
    except OSError as exc:
        raise WorkloadError(f"cannot read trace file {trace_path}: {exc}") from None
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise WorkloadError(
                f"{trace_path}:{lineno}: invalid JSON in trace: {exc}"
            ) from None
        if not isinstance(record, dict):
            raise WorkloadError(
                f"{trace_path}:{lineno}: trace line must be a JSON object"
            )
        if "meta" in record:
            if lineno != 1:
                raise WorkloadError(
                    f"{trace_path}:{lineno}: 'meta' is only allowed on line 1"
                )
            continue
        unknown = set(record) - _STEP_KEYS
        if unknown:
            raise WorkloadError(
                f"{trace_path}:{lineno}: unknown trace keys {sorted(unknown)}; "
                f"expected {sorted(_STEP_KEYS)}"
            )
        try:
            step = _parse_step(record)
        except (TypeError, ValueError, WorkloadError) as exc:
            raise WorkloadError(
                f"{trace_path}:{lineno}: invalid trace step: {exc}"
            ) from None
        steps.append(step)
    if not steps:
        raise WorkloadError(f"trace file {trace_path} contains no steps")
    return steps


def _parse_step(record: dict) -> WorkloadStep:
    """Build one step from a decoded trace line, rejecting any field of
    the wrong type instead of coercing it."""
    compute_s = record.get("compute_s", 0.0)
    # The range test also rejects NaN, the infinities and ints too large
    # for a float.
    if (
        type(compute_s) not in (int, float)
        or not 0 <= compute_s <= sys.float_info.max
    ):
        raise ValueError(
            f"'compute_s' must be a finite number >= 0, got {compute_s!r}"
        )
    phase = record.get("phase", "")
    if not isinstance(phase, str):
        raise ValueError(f"'phase' must be a string, got {phase!r}")
    write = record.get("write", True)
    if type(write) is not bool:
        raise ValueError(f"'write' must be true or false, got {write!r}")
    return WorkloadStep(
        compute_time_s=float(compute_s),
        pages=_page_numbers(record, "pages"),
        frees=_page_numbers(record, "frees"),
        phase=phase,
        write=write,
    )


def _page_numbers(record: dict, key: str) -> tuple:
    pages = record.get(key, [])
    if not isinstance(pages, list):
        raise ValueError(
            f"{key!r} must be a list of page numbers, got {pages!r}"
        )
    for page in pages:
        # bool is an int subclass, so test the exact type.
        if type(page) is not int or not 0 <= page < _PAGE_LIMIT:
            raise ValueError(
                f"{key!r} holds {page!r}; page numbers are integers in "
                "[0, 2**32)"
            )
    return tuple(pages)


def dump_trace_steps(
    steps: Iterable[WorkloadStep],
    path: Union[str, Path],
    *,
    meta: Optional[dict] = None,
) -> int:
    """Write *steps* as a JSONL trace file; returns the step count.

    Accepts any iterable of steps — including a live
    :class:`~repro.workloads.base.Workload` instance, whose step stream
    is consumed once.
    """
    count = 0
    out = Path(path)
    with out.open("w") as handle:
        if meta is not None:
            handle.write(json.dumps({"meta": meta}, sort_keys=True) + "\n")
        for step in steps:
            count += 1
            handle.write(
                json.dumps(
                    {
                        "compute_s": step.compute_time_s,
                        "pages": [int(p) for p in step.pages],
                        "frees": [int(p) for p in step.frees],
                        "phase": step.phase,
                        "write": bool(step.write),
                    },
                    sort_keys=True,
                )
                + "\n"
            )
    return count


@WORKLOADS.register(
    "trace",
    param_docs={
        "path": "JSONL trace file to replay (from `smartmem trace record`)",
        "repeat": "number of times the trace is replayed back to back",
    },
    bounds={"repeat": ">= 1"},
)
class TraceWorkload(Workload):
    """Replay a recorded JSONL page-access trace."""

    def __init__(
        self,
        *,
        units: MemoryUnits,
        rng: np.random.Generator,
        path: str,
        repeat: int = 1,
    ) -> None:
        super().__init__(units=units, rng=rng)
        self._path = path
        self._repeat = repeat
        self._steps = load_trace_steps(self._path)

    # -- the contract -------------------------------------------------------
    def generate_steps(self) -> Iterator[WorkloadStep]:
        for _ in range(self._repeat):
            yield from self._steps

    def phases(self) -> Sequence[WorkloadPhase]:
        seen: List[str] = []
        for step in self._steps:
            if step.phase and step.phase not in seen:
                seen.append(step.phase)
        return tuple(WorkloadPhase(name=phase) for phase in seen)

    def peak_footprint_pages(self) -> int:
        live: set = set()
        peak = 0
        for step in self._steps:
            live.update(step.pages)
            peak = max(peak, len(live))
            live.difference_update(step.frees)
        return peak
