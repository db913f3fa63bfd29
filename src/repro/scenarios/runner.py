"""Scenario runner: executes one scenario under one policy.

The runner performs the full system assembly the paper describes,
layered through the cluster abstractions:

1. build the simulation engine and the trace recorder shared by every
   host of the run;
2. build one :class:`~repro.cluster.cluster.Cluster` of
   :class:`~repro.cluster.node.Node` objects over the spec's layout
   (:meth:`~repro.scenarios.spec.ScenarioSpec.layout`): the spec's
   :class:`~repro.scenarios.spec.ClusterTopology`, or one node holding
   every VM for the classic single-host scenarios.  Each node owns its
   hypervisor, tmem pool, guests, TKM, Memory Manager and netlink pair;
   multi-node clusters additionally wire the interconnect, remote-tmem
   spill and the capacity coordinator;
3. install the scenario's cross-VM phase triggers (used by the Usemem
   scenario) over the merged VM population, start the cluster and run
   the engine until every VM on every node is idle;
4. finalize and check the cluster, and collect per-VM run times, memory
   statistics and the tmem usage traces into a
   :class:`~repro.scenarios.results.ScenarioResult` (plus a per-node
   summary when the spec has a topology).

``check_invariants`` (default: the ``SMARTMEM_CHECK_INVARIANTS``
environment variable) arms the cluster's read-only invariant checker,
single hosts included.

The special policy spec ``"no-tmem"`` disables tmem in the guests
entirely (the paper's no-tmem baseline): every evicted page goes straight
to the swap disk.
"""

from __future__ import annotations

import os
import time as _time
from typing import Dict, List, Optional

from ..cluster.cluster import Cluster
from ..config import SimulationConfig
from ..errors import ScenarioError, SimulationError
from ..guest.vm import VirtualMachine
from ..sim.engine import SimulationEngine
from ..sim.rng import RngFactory
from ..sim.trace import TraceRecorder
from ..units import SCENARIO_UNITS, MemoryUnits
from ..workloads.registry import register_workload_kind
from .results import ScenarioResult, VmResult
from .spec import ScenarioSpec

__all__ = [
    "ScenarioRunner",
    "run_scenario",
    "NO_TMEM_POLICY",
    "deadline_error",
    "register_workload_kind",
    "resolve_config",
]

#: Pseudo-policy spec for the paper's "no tmem support" baseline.
NO_TMEM_POLICY = "no-tmem"


def resolve_config(
    config: Optional[SimulationConfig],
    units: Optional[MemoryUnits],
    seed: Optional[int],
) -> SimulationConfig:
    """A run's config: *config* (default: one at *units*, else
    :data:`SCENARIO_UNITS`) with the *units* and *seed* overrides."""
    base = config if config is not None else SimulationConfig(
        units=units if units is not None else SCENARIO_UNITS
    )
    if units is not None and base.units is not units:
        base = base.with_overrides(units=units)
    if seed is not None:
        base = base.with_overrides(seed=seed)
    return base


def invariant_checks(check_invariants: Optional[bool]) -> bool:
    """Whether a run arms the invariant checker: *check_invariants*, or
    the ``SMARTMEM_CHECK_INVARIANTS`` environment variable when it is
    ``None``."""
    if check_invariants is None:
        return bool(os.environ.get("SMARTMEM_CHECK_INVARIANTS"))
    return check_invariants


def deadline_error(
    spec: ScenarioSpec,
    policy_spec: str,
    deadline: float,
    running: List[str],
) -> SimulationError:
    """The error every execution path raises when VMs miss the deadline."""
    return SimulationError(
        f"scenario {spec.name!r} under {policy_spec!r} did not "
        f"finish within {deadline:.0f} simulated seconds; still running: "
        f"{running}"
    )


class ScenarioRunner:
    """Builds and executes one (scenario, policy) combination."""

    def __init__(
        self,
        spec: ScenarioSpec,
        policy_spec: str,
        *,
        config: Optional[SimulationConfig] = None,
        units: Optional[MemoryUnits] = None,
        seed: Optional[int] = None,
        epoch: Optional[object] = None,
        check_invariants: Optional[bool] = None,
    ) -> None:
        self.spec = spec
        self.policy_spec = policy_spec
        self.config = resolve_config(config, units, seed)

        self.engine = SimulationEngine()
        self.trace = TraceRecorder()

        self.cluster = Cluster(
            spec,
            policy_spec,
            engine=self.engine,
            config=self.config,
            trace=self.trace,
            rng_factory=RngFactory(self.config.seed),
            use_tmem=policy_spec != NO_TMEM_POLICY,
            epoch=epoch,
        )
        self.nodes = self.cluster.nodes
        self.vms: Dict[str, VirtualMachine] = self.cluster.merged_vms()
        if invariant_checks(check_invariants):
            self.cluster.enable_invariant_checker()

        self._triggered_vms: set = set()
        #: VMs whose start is deferred to a phase trigger; populated by
        #: _install_triggers().  Initialized here so a missed
        #: _install_triggers() call cannot be silently masked by a
        #: getattr() fallback at run time.
        self._trigger_started_vms: set = set()
        self._stop_fired = False
        self._install_triggers()

    # -- trigger installation ----------------------------------------------------
    def _install_triggers(self) -> None:
        spec = self.spec

        # VMs that are started by a phase trigger must not auto-start.
        trigger_started = {t.start_vm for t in spec.phase_triggers if t.start_vm}
        for vm_name in trigger_started:
            if vm_name not in self.vms:
                raise ScenarioError(
                    f"phase trigger references unknown VM {vm_name!r}"
                )

        def on_phase(vm: VirtualMachine, phase: str, when: float) -> None:
            for trigger in spec.phase_triggers:
                if trigger.start_vm and trigger.matches(vm.name, phase):
                    if trigger.start_vm not in self._triggered_vms:
                        self._triggered_vms.add(trigger.start_vm)
                        self.vms[trigger.start_vm].start()
            if spec.stop_trigger is not None and not self._stop_fired:
                if spec.stop_trigger.matches(vm.name, phase):
                    self._stop_fired = True
                    for other in self.vms.values():
                        other.request_stop()

        for vm in self.vms.values():
            vm.on_phase_change(on_phase)

        self._trigger_started_vms = trigger_started

    # -- execution -------------------------------------------------------------
    def run(self) -> ScenarioResult:
        """Execute the scenario and return its results."""
        wall_start = _time.perf_counter()
        self.cluster.start()

        for name, vm in self.vms.items():
            if name not in self._trigger_started_vms:
                vm.start()

        deadline = min(self.spec.max_duration_s, self.config.max_simulated_time_s)

        def all_idle() -> bool:
            return all(vm.is_idle for vm in self.vms.values())

        self.engine.run(until=deadline, stop_when=all_idle)
        if not all_idle():
            raise deadline_error(
                self.spec,
                self.policy_spec,
                deadline,
                [name for name, vm in self.vms.items() if not vm.is_idle],
            )
        # Take one final statistics sample per node so the traces cover
        # the full run.
        self.cluster.finalize()
        self.cluster.check_invariants()

        wall_elapsed = _time.perf_counter() - wall_start
        return self._collect_results(wall_elapsed)

    # -- result collection ----------------------------------------------------------
    def _collect_results(self, wall_clock_s: float) -> ScenarioResult:
        vm_results: Dict[str, VmResult] = {}
        for node in self.nodes:
            vm_results.update(node.collect_vm_results())

        cluster_info = None
        if self.spec.topology is not None:
            cluster_info = {
                "topology": {
                    "node_count": len(self.nodes),
                    "remote_spill": self.cluster.topology.remote_spill,
                    "coordinator": self.cluster.topology.coordinator,
                },
                "nodes": self.cluster.describe_nodes(),
                "capacity_moves": self.cluster.capacity_moves,
                "interconnect_pages_moved": (
                    self.cluster.channel.pages_moved
                    if self.cluster.channel is not None
                    else 0
                ),
            }
            # Contention/failure/migration sections appear only when the
            # run used them (historical cluster fingerprints unchanged).
            cluster_info.update(self.cluster.describe_extras())

        return ScenarioResult(
            scenario_name=self.spec.name,
            policy_spec=self.policy_spec,
            seed=self.config.seed,
            total_tmem_pages=sum(node.total_tmem_pages for node in self.nodes),
            simulated_duration_s=self.engine.now,
            vms=vm_results,
            trace=self.trace,
            target_updates=sum(node.target_updates for node in self.nodes),
            snapshots=sum(node.snapshots for node in self.nodes),
            wall_clock_s=wall_clock_s,
            cluster=cluster_info,
        )


def run_scenario(
    spec: ScenarioSpec,
    policy_spec: str,
    *,
    config: Optional[SimulationConfig] = None,
    units: Optional[MemoryUnits] = None,
    seed: Optional[int] = None,
    check_invariants: Optional[bool] = None,
    shards: "int | str | None" = None,
    cluster_engine: Optional[str] = None,
    inline: bool = False,
) -> ScenarioResult:
    """Run *spec* under *policy_spec* on the path its runner chooses.

    The one-call form of
    :class:`~repro.cluster.sharded.ShardedClusterRunner`.  Without
    *shards*, under the exact engine, that is one :class:`ScenarioRunner`
    in this process; *shards*, *cluster_engine* (``"exact"`` or
    ``"epoch"``) and *inline* select the sharded and epoch paths.
    """
    from ..cluster.sharded import ShardedClusterRunner

    return ShardedClusterRunner(
        spec, policy_spec, shards=shards, config=config, units=units,
        seed=seed, inline=inline, cluster_engine=cluster_engine,
        check_invariants=check_invariants,
    ).run()
