"""Discrete-event simulation kernel.

The engine is deliberately small: a binary-heap event queue, a monotonic
simulated clock, fire-and-forget callbacks, cancellable recurring
timers, and a numpy-backed time-series trace recorder.  Higher layers
(hypervisor, guests, memory manager) schedule callbacks on the engine
rather than subclassing it.
"""

from .engine import SimulationEngine
from .events import EventPriority, RecurringTimer
from .trace import TraceRecorder, TraceSeries
from .rng import RngFactory

__all__ = [
    "SimulationEngine",
    "EventPriority",
    "RecurringTimer",
    "TraceRecorder",
    "TraceSeries",
    "RngFactory",
]
