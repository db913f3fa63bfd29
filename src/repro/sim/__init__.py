"""Discrete-event simulation kernel.

The engine is deliberately small: a binary-heap event queue, a monotonic
simulated clock, fire-and-forget callbacks, cancellable recurring
timers, and a numpy-backed time-series trace recorder.  Higher layers
(hypervisor, guests, memory manager) schedule callbacks on the engine
rather than subclassing it.
"""

from .._lazy import lazy_getattr

#: Every re-exported name, mapped to the submodule that defines it and
#: loads on first access (PEP 562).
_LAZY = {
    "SimulationEngine": "engine",
    "EventPriority": "events",
    "RecurringTimer": "events",
    "TraceRecorder": "trace",
    "TraceSeries": "trace",
    "RngFactory": "rng",
}

__getattr__ = lazy_getattr(__name__, _LAZY)

__all__ = [
    "SimulationEngine",
    "EventPriority",
    "RecurringTimer",
    "TraceRecorder",
    "TraceSeries",
    "RngFactory",
]
