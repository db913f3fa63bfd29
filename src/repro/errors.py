"""Exception hierarchy for the SmarTmem reproduction.

All library-specific errors derive from :class:`ReproError` so callers can
catch the whole family with a single ``except`` clause.  Errors are split
by subsystem (simulation engine, hypervisor/tmem, guest kernel, policy
layer, scenario configuration) which mirrors the package layout.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "SimulationError",
    "ClockError",
    "EventError",
    "TmemError",
    "TmemPoolError",
    "TmemKeyError",
    "HypercallError",
    "GuestError",
    "SwapError",
    "PolicyError",
    "UnknownPolicyError",
    "ScenarioError",
    "WorkloadError",
    "AnalysisError",
    "ExperimentError",
    "WireError",
    "TransportError",
    "ProtocolError",
    "ClusterError",
    "FaultSpecError",
    "InvariantViolation",
]


class ReproError(Exception):
    """Base class for every error raised by :mod:`repro`."""


class ConfigurationError(ReproError):
    """A configuration value is invalid or inconsistent."""


# --------------------------------------------------------------------------
# Simulation engine
# --------------------------------------------------------------------------
class SimulationError(ReproError):
    """Base class for discrete-event engine errors."""


class ClockError(SimulationError):
    """The simulated clock was asked to move backwards."""


class EventError(SimulationError):
    """An event was scheduled or cancelled incorrectly."""


# --------------------------------------------------------------------------
# Hypervisor / tmem backend
# --------------------------------------------------------------------------
class TmemError(ReproError):
    """Base class for tmem backend errors."""


class TmemPoolError(TmemError):
    """A tmem pool operation referenced an unknown or closed pool."""


class TmemKeyError(TmemError):
    """A tmem key (pool, object, index) was malformed or missing."""


class HypercallError(ReproError):
    """A hypercall was issued by an unregistered domain or with bad args."""


# --------------------------------------------------------------------------
# Guest kernel
# --------------------------------------------------------------------------
class GuestError(ReproError):
    """Base class for guest-kernel model errors."""


class SwapError(GuestError):
    """The guest swap area overflowed or was addressed out of range."""


# --------------------------------------------------------------------------
# Policy / memory manager
# --------------------------------------------------------------------------
class PolicyError(ReproError):
    """A policy produced an invalid target vector."""


class UnknownPolicyError(PolicyError):
    """A policy name was not found in the registry."""


# --------------------------------------------------------------------------
# Scenarios / workloads / analysis
# --------------------------------------------------------------------------
class ScenarioError(ReproError):
    """A scenario specification is invalid."""


class WorkloadError(ReproError):
    """A workload was configured with impossible parameters."""


class AnalysisError(ReproError):
    """Post-processing was asked for data that was never recorded."""


class ExperimentError(ReproError):
    """An experiment sweep was mis-specified or a stored result is missing."""


class WireError(ExperimentError):
    """A wire envelope (sweep-service HTTP payload) was malformed."""


class TransportError(ExperimentError):
    """A sweep-service request failed to reach the server (retriable)."""


class ProtocolError(ExperimentError):
    """The sweep server rejected a request (non-retriable client error)."""


class ClusterError(ReproError):
    """A multi-node cluster topology is invalid or inconsistently wired."""


class FaultSpecError(ClusterError):
    """A fault-injection spec string or plan is malformed."""


class InvariantViolation(ClusterError):
    """A cluster-wide conservation invariant broke mid-simulation.

    Raised by the inline invariant checker with a structured payload:
    ``check`` names the failed invariant, ``at_s`` the simulated time it
    was observed, and ``details`` carries the offending quantities so a
    violation in a long chaotic run is diagnosable without a debugger.
    """

    def __init__(self, check: str, at_s: float, details: str) -> None:
        self.check = check
        self.at_s = at_s
        self.details = details
        super().__init__(
            f"invariant {check!r} violated at t={at_s:.6f}s: {details}"
        )
