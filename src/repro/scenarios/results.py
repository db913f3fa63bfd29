"""Result containers produced by the scenario runner.

Every container serializes to a strict-JSON-safe dict (``to_dict``) and
back (``from_dict``), so results can cross process boundaries (the
parallel sweep backends), be archived on disk (the
:class:`~repro.experiments.store.ResultStore`) and be re-loaded for
analysis without re-simulating.  Non-finite floats — e.g. the
``end_time_s`` of a run stopped early — are encoded portably (see
:mod:`repro.serialize`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..errors import AnalysisError
from ..serialize import decode_float, encode_float
from ..sim.trace import TraceRecorder, TraceSeries

__all__ = ["RunResult", "VmResult", "ScenarioResult"]


@dataclass(frozen=True)
class RunResult:
    """Timing of one workload run on one VM (one bar of Figures 3/5/7/9)."""

    vm_name: str
    workload_name: str
    run_index: int
    start_time_s: float
    end_time_s: float
    duration_s: float
    stopped_early: bool
    phase_durations: Mapping[str, float] = field(default_factory=dict)
    phase_order: Sequence[str] = ()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "vm_name": self.vm_name,
            "workload_name": self.workload_name,
            "run_index": self.run_index,
            "start_time_s": encode_float(self.start_time_s),
            "end_time_s": encode_float(self.end_time_s),
            "duration_s": encode_float(self.duration_s),
            "stopped_early": self.stopped_early,
            "phase_durations": {
                phase: encode_float(duration)
                for phase, duration in self.phase_durations.items()
            },
            "phase_order": list(self.phase_order),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunResult":
        return cls(
            vm_name=data["vm_name"],
            workload_name=data["workload_name"],
            run_index=int(data["run_index"]),
            start_time_s=decode_float(data["start_time_s"]),
            end_time_s=decode_float(data["end_time_s"]),
            duration_s=decode_float(data["duration_s"]),
            stopped_early=bool(data["stopped_early"]),
            phase_durations={
                phase: decode_float(duration)
                for phase, duration in data["phase_durations"].items()
            },
            phase_order=tuple(data["phase_order"]),
        )


@dataclass(frozen=True)
class VmResult:
    """Per-VM aggregate of one scenario run under one policy."""

    vm_name: str
    vm_id: int
    runs: Sequence[RunResult]
    #: Guest kernel memory statistics at the end of the run.
    major_faults: int
    faults_from_tmem: int
    faults_from_disk: int
    evictions_to_tmem: int
    evictions_to_disk: int
    failed_tmem_puts: int
    time_in_tmem_ops_s: float
    time_in_disk_io_s: float
    #: Hypervisor-side cumulative counters.
    cumul_puts_total: int
    cumul_puts_succ: int
    cumul_puts_failed: int
    peak_tmem_pages: int
    #: Cleancache (ephemeral tmem) counters for VMs with file-backed
    #: workloads: puts / failed_puts / hits / misses / invalidates.
    #: ``None`` for frontswap-only VMs, whose serialized form (and
    #: therefore every historical fingerprint) is unchanged.
    cleancache: Optional[Dict[str, int]] = None

    def run(self, index: int) -> RunResult:
        for run in self.runs:
            if run.run_index == index:
                return run
        raise AnalysisError(f"{self.vm_name} has no run #{index}")

    def to_dict(self) -> Dict[str, Any]:
        data = {
            "vm_name": self.vm_name,
            "vm_id": self.vm_id,
            "runs": [run.to_dict() for run in self.runs],
            "major_faults": self.major_faults,
            "faults_from_tmem": self.faults_from_tmem,
            "faults_from_disk": self.faults_from_disk,
            "evictions_to_tmem": self.evictions_to_tmem,
            "evictions_to_disk": self.evictions_to_disk,
            "failed_tmem_puts": self.failed_tmem_puts,
            "time_in_tmem_ops_s": encode_float(self.time_in_tmem_ops_s),
            "time_in_disk_io_s": encode_float(self.time_in_disk_io_s),
            "cumul_puts_total": self.cumul_puts_total,
            "cumul_puts_succ": self.cumul_puts_succ,
            "cumul_puts_failed": self.cumul_puts_failed,
            "peak_tmem_pages": self.peak_tmem_pages,
        }
        if self.cleancache is not None:
            data["cleancache"] = dict(self.cleancache)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "VmResult":
        return cls(
            vm_name=data["vm_name"],
            vm_id=int(data["vm_id"]),
            runs=tuple(RunResult.from_dict(run) for run in data["runs"]),
            major_faults=int(data["major_faults"]),
            faults_from_tmem=int(data["faults_from_tmem"]),
            faults_from_disk=int(data["faults_from_disk"]),
            evictions_to_tmem=int(data["evictions_to_tmem"]),
            evictions_to_disk=int(data["evictions_to_disk"]),
            failed_tmem_puts=int(data["failed_tmem_puts"]),
            time_in_tmem_ops_s=decode_float(data["time_in_tmem_ops_s"]),
            time_in_disk_io_s=decode_float(data["time_in_disk_io_s"]),
            cumul_puts_total=int(data["cumul_puts_total"]),
            cumul_puts_succ=int(data["cumul_puts_succ"]),
            cumul_puts_failed=int(data["cumul_puts_failed"]),
            peak_tmem_pages=int(data["peak_tmem_pages"]),
            cleancache=data.get("cleancache"),
        )


@dataclass
class ScenarioResult:
    """Everything recorded from one scenario x policy execution."""

    scenario_name: str
    policy_spec: str
    seed: int
    total_tmem_pages: int
    simulated_duration_s: float
    vms: Dict[str, VmResult]
    trace: TraceRecorder
    #: Number of target updates the MM pushed to the hypervisor.
    target_updates: int
    #: Number of statistics snapshots taken.
    snapshots: int
    #: Wall-clock execution cost of the simulation itself (seconds).
    wall_clock_s: float = 0.0
    #: Per-node summary of a run whose spec has a topology: topology
    #: facts, spill/fetch counters and coordinator capacity moves.
    #: ``None`` for classic single-host runs, whose serialized form (and
    #: therefore fingerprint) is unchanged by the cluster layer.
    cluster: Optional[Dict[str, Any]] = None

    # -- convenience accessors -------------------------------------------------
    def vm(self, name: str) -> VmResult:
        try:
            return self.vms[name]
        except KeyError:
            raise AnalysisError(
                f"scenario result has no VM {name!r}; got {sorted(self.vms)}"
            ) from None

    def vm_names(self) -> Sequence[str]:
        return tuple(sorted(self.vms))

    def runtimes(self) -> Dict[str, List[float]]:
        """Per-VM list of run durations (the bars of Figures 3/5/9)."""
        return {
            name: [run.duration_s for run in result.runs]
            for name, result in sorted(self.vms.items())
        }

    def runtime_of(self, vm_name: str, run_index: int = 0) -> float:
        return self.vm(vm_name).run(run_index).duration_s

    def tmem_usage_series(self, vm_name: str) -> TraceSeries:
        """Time series of tmem pages held by *vm_name* (Figures 4/6/8/10)."""
        vm = self.vm(vm_name)
        return self.trace.get(f"tmem_used/vm{vm.vm_id}")

    def target_series(self, vm_name: str) -> Optional[TraceSeries]:
        vm = self.vm(vm_name)
        name = f"mm_target/vm{vm.vm_id}"
        return self.trace.get(name) if name in self.trace else None

    def mean_runtime_s(self) -> float:
        durations = [
            run.duration_s for vm in self.vms.values() for run in vm.runs
        ]
        if not durations:
            raise AnalysisError("scenario produced no finished runs")
        return float(np.mean(durations))

    def total_disk_faults(self) -> int:
        return sum(vm.faults_from_disk for vm in self.vms.values())

    def total_tmem_faults(self) -> int:
        return sum(vm.faults_from_tmem for vm in self.vms.values())

    # -- serialization ---------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Strict-JSON-safe representation of the full result (incl. traces)."""
        data = {
            "scenario_name": self.scenario_name,
            "policy_spec": self.policy_spec,
            "seed": self.seed,
            "total_tmem_pages": self.total_tmem_pages,
            "simulated_duration_s": encode_float(self.simulated_duration_s),
            "vms": {name: vm.to_dict() for name, vm in sorted(self.vms.items())},
            "trace": self.trace.to_dict(),
            "target_updates": self.target_updates,
            "snapshots": self.snapshots,
            "wall_clock_s": encode_float(self.wall_clock_s),
        }
        if self.cluster is not None:
            data["cluster"] = self.cluster
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioResult":
        return cls(
            scenario_name=data["scenario_name"],
            policy_spec=data["policy_spec"],
            seed=int(data["seed"]),
            total_tmem_pages=int(data["total_tmem_pages"]),
            simulated_duration_s=decode_float(data["simulated_duration_s"]),
            vms={
                name: VmResult.from_dict(vm) for name, vm in data["vms"].items()
            },
            trace=TraceRecorder.from_dict(data["trace"]),
            target_updates=int(data["target_updates"]),
            snapshots=int(data["snapshots"]),
            wall_clock_s=decode_float(data["wall_clock_s"]),
            cluster=data.get("cluster"),
        )

    def fingerprint(self) -> str:
        """SHA-256 over the canonical JSON form, minus wall-clock time.

        Two runs of the same (scenario, policy, seed, scale) point are
        expected to produce equal fingerprints regardless of which
        execution backend (or host) ran them: every simulated quantity is
        deterministic, only ``wall_clock_s`` varies, so it is excluded.
        """
        data = self.to_dict()
        data.pop("wall_clock_s")
        canonical = json.dumps(
            data, sort_keys=True, separators=(",", ":"), allow_nan=False
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def aggregate_fingerprint(self) -> str:
        """SHA-256 over the integer aggregates and end-of-run traces only.

        The full :meth:`fingerprint` hashes every float time accumulator,
        so it distinguishes runs that differ in the last units of float
        precision.  This weaker fingerprint hashes only the integer event
        counters (faults, evictions, put accounting, peaks), the
        run/phase structure, and the final value of every trace series.
        It is the determinism contract of the ``epoch`` cluster engine:
        same seed and topology give the same aggregate fingerprint at
        any shard count (pinned in
        ``tests/data/scenario_fingerprints_epoch.json``).
        """
        vms: Dict[str, Any] = {}
        for name, vm in sorted(self.vms.items()):
            vms[name] = {
                "vm_id": vm.vm_id,
                "runs": [
                    {
                        "workload_name": run.workload_name,
                        "run_index": run.run_index,
                        "stopped_early": run.stopped_early,
                        "phase_order": list(run.phase_order),
                    }
                    for run in vm.runs
                ],
                "major_faults": vm.major_faults,
                "faults_from_tmem": vm.faults_from_tmem,
                "faults_from_disk": vm.faults_from_disk,
                "evictions_to_tmem": vm.evictions_to_tmem,
                "evictions_to_disk": vm.evictions_to_disk,
                "failed_tmem_puts": vm.failed_tmem_puts,
                "cumul_puts_total": vm.cumul_puts_total,
                "cumul_puts_succ": vm.cumul_puts_succ,
                "cumul_puts_failed": vm.cumul_puts_failed,
                "peak_tmem_pages": vm.peak_tmem_pages,
            }
            if vm.cleancache is not None:
                # Conditional key: frontswap-only VMs hash exactly as
                # before the cleancache counters existed.
                vms[name]["cleancache"] = dict(vm.cleancache)
        trace_end: Dict[str, Any] = {}
        for name in self.trace.names():
            series = self.trace.get(name)
            trace_end[name] = (
                encode_float(float(series.values[-1])) if len(series) else None
            )
        data: Dict[str, Any] = {
            "scenario_name": self.scenario_name,
            "policy_spec": self.policy_spec,
            "seed": self.seed,
            "total_tmem_pages": self.total_tmem_pages,
            "target_updates": self.target_updates,
            "snapshots": self.snapshots,
            "vms": vms,
            "trace_end": trace_end,
        }
        canonical = json.dumps(
            data, sort_keys=True, separators=(",", ":"), allow_nan=False
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
