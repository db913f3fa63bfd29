"""Time-series trace recording.

The figures in the paper (Figures 4, 6, 8 and 10) plot, for every VM, the
number of tmem pages held over time, sampled at the one-second VIRQ
cadence.  :class:`TraceRecorder` collects named series of ``(time, value)``
samples and exposes them as numpy arrays for analysis.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Tuple

import numpy as np

from ..errors import AnalysisError
from ..serialize import decode_floats, encode_floats

__all__ = ["TraceSeries", "TraceRecorder"]


def _float_buffer() -> "array[float]":
    return array("d")


@dataclass
class TraceSeries:
    """A single named time series.

    Samples are stored in ``array('d')`` append buffers: one compact
    C-double per sample instead of a boxed Python float, and the numpy
    views below materialize straight from the buffer without touching
    the interpreter per element.  The JSON form (``to_dict``/
    ``from_dict``) is unchanged from the list-backed representation —
    the encoder sees the same float sequence either way.
    """

    name: str
    _times: "array[float]" = field(default_factory=_float_buffer)
    _values: "array[float]" = field(default_factory=_float_buffer)

    def append(self, time: float, value: float) -> None:
        times = self._times
        if times and time < times[-1]:
            raise AnalysisError(
                f"trace {self.name!r}: non-monotonic sample at t={time} "
                f"(last was {times[-1]})"
            )
        times.append(time)
        self._values.append(value)

    def __len__(self) -> int:
        return len(self._times)

    @property
    def times(self) -> np.ndarray:
        # np.array copies through the buffer protocol (one memcpy); a
        # sharing view would pin the buffer and make later appends fail.
        return np.array(self._times, dtype=np.float64)

    @property
    def values(self) -> np.ndarray:
        return np.array(self._values, dtype=np.float64)

    def as_tuples(self) -> List[Tuple[float, float]]:
        return list(zip(self._times, self._values))

    def value_at(self, time: float) -> float:
        """Last recorded value at or before *time* (step interpolation)."""
        times = self.times
        if times.size == 0:
            raise AnalysisError(f"trace {self.name!r} is empty")
        idx = int(np.searchsorted(times, time, side="right")) - 1
        if idx < 0:
            raise AnalysisError(
                f"trace {self.name!r} has no sample at or before t={time}"
            )
        return float(self._values[idx])

    def mean(self) -> float:
        if not self._values:
            raise AnalysisError(f"trace {self.name!r} is empty")
        return float(np.mean(self.values))

    def max(self) -> float:
        if not self._values:
            raise AnalysisError(f"trace {self.name!r} is empty")
        return float(np.max(self.values))

    # -- serialization ------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Strict-JSON-safe representation (NaN/inf encoded portably)."""
        return {
            "name": self.name,
            "times": encode_floats(self._times),
            "values": encode_floats(self._values),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TraceSeries":
        series = cls(name=data["name"])
        # Assign directly instead of append(): the stored samples already
        # passed the monotonicity check when they were recorded.
        series._times = array("d", decode_floats(data["times"]))
        series._values = array("d", decode_floats(data["values"]))
        if len(series._times) != len(series._values):
            raise AnalysisError(
                f"trace {series.name!r}: times/values length mismatch "
                f"({len(series._times)} vs {len(series._values)})"
            )
        return series


class TraceRecorder:
    """A bag of named :class:`TraceSeries`."""

    def __init__(self) -> None:
        self._series: Dict[str, TraceSeries] = {}

    def series(self, name: str) -> TraceSeries:
        """Get (creating on first use) the series called *name*."""
        if name not in self._series:
            self._series[name] = TraceSeries(name)
        return self._series[name]

    def record(self, name: str, time: float, value: float) -> None:
        self.series(name).append(time, value)

    def __contains__(self, name: str) -> bool:
        return name in self._series

    def names(self) -> Iterable[str]:
        return sorted(self._series)

    def get(self, name: str) -> TraceSeries:
        try:
            return self._series[name]
        except KeyError:
            raise AnalysisError(f"no trace named {name!r} was recorded") from None

    def as_dict(self) -> Mapping[str, TraceSeries]:
        return dict(self._series)

    # -- serialization ------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Strict-JSON-safe representation of every series (sorted by name)."""
        return {name: self._series[name].to_dict() for name in self.names()}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TraceRecorder":
        recorder = cls()
        for name, series_data in data.items():
            series = TraceSeries.from_dict(series_data)
            if series.name != name:
                raise AnalysisError(
                    f"trace dict key {name!r} does not match series name "
                    f"{series.name!r}"
                )
            recorder._series[name] = series
        return recorder
