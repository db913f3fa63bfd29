"""Scenario specifications (the rows of Table II).

A scenario describes the node (RAM, tmem pool size), the VMs (RAM, vCPUs)
and the jobs each VM runs (which workload, when it starts, how many times).
Specs are declarative and contain no simulation state, so they can be
constructed once and run under many policies; the scenario *library*
(:mod:`repro.scenarios.library`) provides the four scenarios of the paper,
and users can build their own specs for new experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple, TYPE_CHECKING

from ..errors import ClusterError, ScenarioError
from ..units import MemoryUnits

if TYPE_CHECKING:  # pragma: no cover - import cycle (cluster -> scenarios)
    from ..cluster.faults import FaultPlan

__all__ = [
    "WorkloadSpec",
    "VMSpec",
    "NodeSpec",
    "NodeFailure",
    "VmMigration",
    "parse_node_failure",
    "parse_vm_migration",
    "ClusterTopology",
    "ScenarioSpec",
]


@dataclass(frozen=True)
class WorkloadSpec:
    """One job queued on one VM."""

    #: Workload kind: "usemem", "in-memory-analytics", "graph-analytics",
    #: or any key registered in the runner's workload factory table.
    kind: str
    #: Constructor overrides forwarded to the workload class.
    params: Mapping[str, Any] = field(default_factory=dict)
    #: Absolute start time in seconds, or None to chain after the previous job.
    start_at: Optional[float] = None
    #: Delay after the previous job finishes (used when start_at is None).
    delay_after_previous: float = 0.0
    #: Label used in reports; defaults to the workload kind.
    label: str = ""

    def __post_init__(self) -> None:
        if self.start_at is not None and self.start_at < 0:
            raise ScenarioError(f"start_at must be >= 0, got {self.start_at}")
        if self.delay_after_previous < 0:
            raise ScenarioError(
                f"delay_after_previous must be >= 0, got {self.delay_after_previous}"
            )

    @property
    def display_label(self) -> str:
        return self.label or self.kind


@dataclass(frozen=True)
class VMSpec:
    """One virtual machine of a scenario."""

    name: str
    ram_mb: int
    vcpus: int = 1
    swap_mb: int = 2048
    jobs: Tuple[WorkloadSpec, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ScenarioError("VM name must not be empty")
        if self.ram_mb <= 0:
            raise ScenarioError(f"{self.name}: ram_mb must be > 0, got {self.ram_mb}")
        if self.vcpus <= 0:
            raise ScenarioError(f"{self.name}: vcpus must be > 0, got {self.vcpus}")
        if self.swap_mb <= 0:
            raise ScenarioError(f"{self.name}: swap_mb must be > 0, got {self.swap_mb}")

    def ram_pages(self, units: MemoryUnits) -> int:
        return units.pages_from_mib(self.ram_mb)

    def swap_pages(self, units: MemoryUnits) -> int:
        return units.pages_from_mib(self.swap_mb)


@dataclass(frozen=True)
class NodeSpec:
    """One physical node of a cluster scenario.

    A node hosts a subset of the scenario's VMs, owns its own tmem pool,
    and runs its own control plane (TKM + Memory Manager + policy).  The
    spec is pure data; the live counterpart is
    :class:`repro.cluster.node.Node`.
    """

    name: str
    #: Names of the scenario's VMs placed on this node.
    vm_names: Tuple[str, ...]
    #: Size of this node's tmem pool.
    tmem_mb: int
    #: Physical memory of the node; defaults to VM RAM + tmem + headroom.
    host_memory_mb: Optional[int] = None
    #: Rack/availability zone label.  Remote spill placement prefers
    #: peers outside a degraded zone; ``None`` means zone-agnostic.
    zone: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ScenarioError("node name must not be empty")
        if not self.vm_names:
            raise ScenarioError(f"node {self.name!r} hosts no VMs")
        if self.tmem_mb < 0:
            raise ScenarioError(
                f"node {self.name!r}: tmem_mb must be >= 0, got {self.tmem_mb}"
            )
        if len(self.vm_names) != len(set(self.vm_names)):
            raise ScenarioError(f"node {self.name!r} lists duplicate VMs")

    def effective_host_memory_mb(self, vm_ram_mb: int) -> int:
        """This node's DRAM given the RAM of the VMs it hosts.

        The one host-memory rule: explicit sizes are validated, the
        default adds 256 MB of hypervisor/dom0 headroom on top of VM RAM
        and the tmem pool.
        """
        if self.host_memory_mb is not None:
            if self.host_memory_mb < vm_ram_mb + self.tmem_mb:
                raise ScenarioError(
                    f"node {self.name!r}: host memory {self.host_memory_mb} "
                    f"MB cannot hold {vm_ram_mb} MB of VM RAM plus "
                    f"{self.tmem_mb} MB of tmem"
                )
            return self.host_memory_mb
        return vm_ram_mb + self.tmem_mb + 256


@dataclass(frozen=True)
class NodeFailure:
    """One scheduled node failure of a cluster scenario.

    At ``at_s`` the named node dies: its local tmem contents are lost,
    remote-tmem pages it hosted for peers are lost with it (frontswap
    pages are re-materialised on the owners' swap disks, cleancache
    pages silently dropped), and its VMs are migrated to surviving
    nodes with a modeled state-copy cost over the interconnect.
    """

    node: str
    at_s: float

    def __post_init__(self) -> None:
        if not self.node:
            raise ScenarioError("failure node name must not be empty")
        if not (math.isfinite(self.at_s) and self.at_s > 0):
            raise ScenarioError(
                f"failure time must be finite and > 0, got {self.at_s}"
            )


@dataclass(frozen=True)
class VmMigration:
    """One planned (live) VM migration of a cluster scenario.

    At ``at_s`` the named VM is suspended, its guest state is copied to
    ``to_node`` over the interconnect (paying the contended channel's
    queue wait), and it resumes on the target node.  Local frontswap
    pages are written back to the guest's swap area; remote spill copies
    on surviving peers are adopted by the new home node.
    """

    vm: str
    to_node: str
    at_s: float

    def __post_init__(self) -> None:
        if not self.vm:
            raise ScenarioError("migration VM name must not be empty")
        if not self.to_node:
            raise ScenarioError("migration target node must not be empty")
        if not (math.isfinite(self.at_s) and self.at_s > 0):
            raise ScenarioError(
                f"migration time must be finite and > 0, got {self.at_s}"
            )


def _spec_time(text: str, spec: str, kind: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ScenarioError(
            f"bad {kind} spec {spec!r}: time {text!r} is not a number"
        ) from None


def parse_node_failure(spec: str) -> NodeFailure:
    """Parse ``NODE@TIME`` (``node2@30``) into a :class:`NodeFailure`."""
    node, _, when = spec.rpartition("@")
    if not node:
        raise ScenarioError(f"bad failure spec {spec!r}: expected NODE@TIME")
    return NodeFailure(node=node, at_s=_spec_time(when, spec, "failure"))


def parse_vm_migration(spec: str) -> VmMigration:
    """Parse ``VM@NODE@TIME`` (``n1.VM1@node2@20``) into a :class:`VmMigration`."""
    head, _, when = spec.rpartition("@")
    vm, _, node = head.rpartition("@")
    if not vm or not node:
        raise ScenarioError(
            f"bad migration spec {spec!r}: expected VM@NODE@TIME"
        )
    return VmMigration(
        vm=vm, to_node=node, at_s=_spec_time(when, spec, "migration")
    )


@dataclass(frozen=True)
class ClusterTopology:
    """Multi-node layout plus cluster-level parameters of a scenario.

    Attach one to :attr:`ScenarioSpec.topology` to run the scenario on a
    cluster of nodes sharing one simulation engine.  The node list must
    partition the scenario's VMs exactly.
    """

    nodes: Tuple[NodeSpec, ...]
    #: Allow overflow puts to spill to peer nodes' pools (RAMster-style).
    remote_spill: bool = True
    #: One-way latency of the modeled interconnect.
    interconnect_latency_s: float = 25.0e-6
    #: Sustained payload bandwidth of the interconnect (bytes/second).
    #: The default approximates a 10 GbE link.
    interconnect_bandwidth_bytes_s: float = 1.25e9
    #: Model interconnect contention: per-link FIFO queueing, so
    #: concurrent transfers pay a queue wait instead of overlapping for
    #: free.  Off by default (the historical stateless cost model).
    contended: bool = False
    #: Cluster coordinator policy spec (``"equal-share"``,
    #: ``"pressure-prop:percent=10"``,
    #: ``"spill-feedback:percent=15"``, ...); ``None`` leaves each
    #: node's tmem capacity fixed.
    coordinator: Optional[str] = None
    #: Interval between coordinator rebalancing rounds.
    rebalance_interval_s: float = 2.0
    #: Scheduled node failures (with failover migration of their VMs).
    failures: Tuple[NodeFailure, ...] = ()
    #: Scheduled planned (live) VM migrations.
    migrations: Tuple[VmMigration, ...] = ()
    #: Transient fault-injection plan (node crash/rejoin windows, link
    #: degradation windows, graceful-degradation knobs); ``None`` runs
    #: fault-free.  See :class:`repro.cluster.faults.FaultPlan`.
    fault_plan: Optional["FaultPlan"] = None

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ScenarioError("cluster topology has no nodes")
        names = [node.name for node in self.nodes]
        if len(names) != len(set(names)):
            raise ScenarioError("cluster topology has duplicate node names")
        if self.interconnect_latency_s < 0:
            raise ScenarioError(
                "interconnect_latency_s must be >= 0, got "
                f"{self.interconnect_latency_s}"
            )
        if self.interconnect_bandwidth_bytes_s <= 0:
            raise ScenarioError(
                "interconnect_bandwidth_bytes_s must be > 0, got "
                f"{self.interconnect_bandwidth_bytes_s}"
            )
        if self.rebalance_interval_s <= 0:
            raise ScenarioError(
                "rebalance_interval_s must be > 0, got "
                f"{self.rebalance_interval_s}"
            )
        name_set = set(names)
        failed = set()
        for failure in self.failures:
            if failure.node not in name_set:
                raise ScenarioError(
                    f"failure names unknown node {failure.node!r}"
                )
            if failure.node in failed:
                raise ScenarioError(
                    f"node {failure.node!r} fails more than once"
                )
            failed.add(failure.node)
        if failed and len(failed) >= len(self.nodes):
            raise ScenarioError("every node of the cluster fails")
        placed = {
            vm_name for node in self.nodes for vm_name in node.vm_names
        }
        by_node = {node.name: node for node in self.nodes}
        for migration in self.migrations:
            if migration.vm not in placed:
                raise ScenarioError(
                    f"migration names unknown VM {migration.vm!r}"
                )
            if migration.to_node not in name_set:
                raise ScenarioError(
                    f"migration names unknown node {migration.to_node!r}"
                )
            if migration.vm in by_node[migration.to_node].vm_names:
                raise ScenarioError(
                    f"VM {migration.vm!r} already lives on node "
                    f"{migration.to_node!r}"
                )
        # Time-aware schedule validation: walk the planned migrations in
        # order and reject moves that could only misbehave at runtime —
        # migrating a VM onto the node it would already be on, or onto a
        # node that has already failed (permanently or during a transient
        # fault window) at that time.
        failed_at = {failure.node: failure.at_s for failure in self.failures}
        location = {
            vm_name: node.name
            for node in self.nodes
            for vm_name in node.vm_names
        }
        for migration in sorted(self.migrations, key=lambda m: m.at_s):
            dead_at = failed_at.get(migration.to_node)
            if dead_at is not None and dead_at <= migration.at_s:
                raise ClusterError(
                    f"migration of {migration.vm!r} to node "
                    f"{migration.to_node!r} at t={migration.at_s}: the node "
                    f"already failed at t={dead_at}"
                )
            if location.get(migration.vm) == migration.to_node:
                raise ClusterError(
                    f"migration of {migration.vm!r} at t={migration.at_s} "
                    f"targets node {migration.to_node!r}, where it already "
                    f"lives at that time"
                )
            location[migration.vm] = migration.to_node
        if self.fault_plan is not None:
            self.fault_plan.validate_topology(self)
            for migration in self.migrations:
                for fault in self.fault_plan.node_faults:
                    if (
                        fault.node == migration.to_node
                        and fault.at_s <= migration.at_s < fault.recover_at_s
                    ):
                        raise ClusterError(
                            f"migration of {migration.vm!r} to node "
                            f"{migration.to_node!r} at t={migration.at_s}: "
                            f"the node is down for a transient fault during "
                            f"[{fault.at_s}, {fault.recover_at_s})"
                        )

    def node_names(self) -> Tuple[str, ...]:
        return tuple(node.name for node in self.nodes)

    def total_tmem_mb(self) -> int:
        return sum(node.tmem_mb for node in self.nodes)


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete benchmarking scenario."""

    name: str
    description: str
    vms: Tuple[VMSpec, ...]
    #: Size of the tmem pool enabled on the node (1 GB in most scenarios,
    #: 384 MB in the Usemem scenario).
    tmem_mb: int
    #: Physical memory of the node; defaults to VM RAM + tmem + headroom.
    host_memory_mb: Optional[int] = None
    #: Optional cross-VM trigger: when VM `watch_vm` enters phase
    #: `watch_phase`, start the jobs of `start_vm` (usemem scenario).
    phase_triggers: Tuple["PhaseTrigger", ...] = ()
    #: Optional global stop: when VM `watch_vm` enters `watch_phase`, every
    #: VM is stopped (usemem scenario stops everyone at 768 MB).
    stop_trigger: Optional["PhaseTrigger"] = None
    #: Hard wall on the simulated duration of one run of this scenario.
    max_duration_s: float = 3600.0
    #: Multi-node layout; ``None`` runs the classic single host, the
    #: one-node layout of :meth:`layout`.
    topology: Optional[ClusterTopology] = None

    def __post_init__(self) -> None:
        if not self.vms:
            raise ScenarioError(f"scenario {self.name!r} has no VMs")
        if self.tmem_mb < 0:
            raise ScenarioError(f"tmem_mb must be >= 0, got {self.tmem_mb}")
        names = [vm.name for vm in self.vms]
        if len(names) != len(set(names)):
            raise ScenarioError(f"scenario {self.name!r} has duplicate VM names")
        if self.max_duration_s <= 0:
            raise ScenarioError(
                f"max_duration_s must be > 0, got {self.max_duration_s}"
            )
        if self.topology is not None:
            placed = [
                vm_name
                for node in self.topology.nodes
                for vm_name in node.vm_names
            ]
            if sorted(placed) != sorted(names):
                raise ScenarioError(
                    f"scenario {self.name!r}: cluster topology must place "
                    f"every VM exactly once (VMs: {sorted(names)}, "
                    f"placed: {sorted(placed)})"
                )

    # -- derived sizes ------------------------------------------------------------
    def total_vm_ram_mb(self) -> int:
        return sum(vm.ram_mb for vm in self.vms)

    def _one_host(self) -> NodeSpec:
        """Node ``node1`` holding every VM, with the spec's tmem pool and
        host memory."""
        return NodeSpec(
            name="node1",
            vm_names=self.vm_names(),
            tmem_mb=self.tmem_mb,
            host_memory_mb=self.host_memory_mb,
        )

    def layout(self) -> ClusterTopology:
        """The nodes a run builds: the topology, or else one host."""
        if self.topology is not None:
            return self.topology
        return ClusterTopology(nodes=(self._one_host(),))

    def effective_host_memory_mb(self) -> int:
        """DRAM of one host holding every VM of the spec."""
        return self._one_host().effective_host_memory_mb(self.total_vm_ram_mb())

    def vm(self, name: str) -> VMSpec:
        for vm in self.vms:
            if vm.name == name:
                return vm
        raise ScenarioError(f"scenario {self.name!r} has no VM named {name!r}")

    def vm_names(self) -> Sequence[str]:
        return tuple(vm.name for vm in self.vms)

    def with_overrides(self, **kwargs: Any) -> "ScenarioSpec":
        """Copy with top-level fields replaced (e.g. a smaller tmem pool)."""
        return replace(self, **kwargs)

    def describe(self) -> Dict[str, Any]:
        """Summary dictionary used by reports and the CLI."""
        return {
            "name": self.name,
            "description": self.description,
            "tmem_mb": self.tmem_mb,
            "host_memory_mb": self.effective_host_memory_mb(),
            "vms": {
                vm.name: {
                    "ram_mb": vm.ram_mb,
                    "vcpus": vm.vcpus,
                    "jobs": [job.display_label for job in vm.jobs],
                }
                for vm in self.vms
            },
        }


@dataclass(frozen=True)
class PhaseTrigger:
    """Fire an action when a VM enters a phase whose name starts with a prefix."""

    watch_vm: str
    phase_prefix: str
    #: For start triggers: the VM whose queued jobs should begin.
    start_vm: Optional[str] = None

    def matches(self, vm_name: str, phase: str) -> bool:
        return vm_name == self.watch_vm and phase.startswith(self.phase_prefix)


__all__.append("PhaseTrigger")
