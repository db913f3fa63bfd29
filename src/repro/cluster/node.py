"""One fully-assembled host of the simulated cluster.

:class:`~repro.cluster.cluster.Cluster` builds one :class:`Node` per
:class:`~repro.scenarios.spec.NodeSpec` of a run's layout, on the run's
shared engine and domain-id allocator.  A scenario without a topology is
a one-node layout, so the classic single host is one ``Node`` too.

A node owns its hypervisor (host memory, tmem pool, backend, sampler,
swap disk), its guests, and — unless tmem is disabled — its control
plane: the privileged-domain TKM, the two netlink channels and the
Memory Manager running the node's policy instance.  Every node of a
cluster runs its *own* policy instance built from the same spec string,
mirroring one SmarTmem deployment per host.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

from ..channels.netlink import NetlinkChannel
from ..config import SimulationConfig
from ..core.manager import MemoryManager
from ..core.policy import TmemPolicy, create_policy
from ..guest.tkm import PrivilegedTkm
from ..guest.vm import VirtualMachine
from ..hypervisor.xen import Hypervisor
from ..scenarios.results import RunResult, VmResult
from ..scenarios.spec import VMSpec, WorkloadSpec
from ..sim.engine import SimulationEngine
from ..sim.rng import RngFactory
from ..sim.trace import TraceRecorder
from ..workloads.base import Workload
from ..workloads.registry import workload_class

__all__ = ["Node"]


class Node:
    """One host: hypervisor + guests + TKM + MM + netlink channels."""

    def __init__(
        self,
        name: str,
        *,
        engine: SimulationEngine,
        config: SimulationConfig,
        trace: TraceRecorder,
        rng_factory: RngFactory,
        scenario_name: str,
        vm_specs: Sequence[VMSpec],
        tmem_mb: int,
        host_memory_mb: int,
        policy_spec: str,
        use_tmem: bool,
        domid_allocator: Callable[[], int],
        free_trace_name: str,
    ) -> None:
        self.name = name
        self.engine = engine
        self.config = config
        self.trace = trace
        self.policy_spec = policy_spec
        self._rng_factory = rng_factory
        self._scenario_name = scenario_name
        self._use_tmem = use_tmem
        #: Set when the node dies mid-run (cluster failure events);
        #: finalize/invariant checks then skip the carcass.
        self.failed = False

        units = config.units
        self.hypervisor = Hypervisor(
            engine,
            config,
            host_memory_pages=units.pages_from_mib(host_memory_mb),
            tmem_pool_pages=(0 if not use_tmem else units.pages_from_mib(tmem_mb)),
            trace=trace,
            domid_allocator=domid_allocator,
            free_trace_name=free_trace_name,
        )

        self.policy: Optional[TmemPolicy] = None
        self.manager: Optional[MemoryManager] = None
        self.privileged_tkm: Optional[PrivilegedTkm] = None
        self._stats_channel: Optional[NetlinkChannel] = None
        self._target_channel: Optional[NetlinkChannel] = None

        self.vms: Dict[str, VirtualMachine] = {}
        self._build_vms(vm_specs)
        if use_tmem:
            self._build_control_plane()

    # -- assembly ------------------------------------------------------------
    def _workload_factory(
        self, vm_spec: VMSpec, job: WorkloadSpec, job_index: int
    ) -> Callable[[], Workload]:
        workload_cls = workload_class(job.kind)
        units = self.config.units
        rng_name = f"{self._scenario_name}/{vm_spec.name}/{job.kind}/{job_index}"

        def factory() -> Workload:
            rng = self._rng_factory.stream(rng_name)
            return workload_cls(units=units, rng=rng, **dict(job.params))

        return factory

    def _build_vms(self, vm_specs: Sequence[VMSpec]) -> None:
        units = self.config.units
        for vm_spec in vm_specs:
            # Cleancache (ephemeral tmem) is enabled on any VM whose jobs
            # include a file-backed workload; anon-only VMs keep the
            # frontswap-only configuration of the paper's experiments.
            wants_cleancache = any(
                workload_class(job.kind).uses_cleancache for job in vm_spec.jobs
            )
            vm = VirtualMachine(
                self.hypervisor,
                self.engine,
                self.config,
                name=vm_spec.name,
                ram_pages=vm_spec.ram_pages(units),
                swap_pages=vm_spec.swap_pages(units),
                vcpus=vm_spec.vcpus,
                use_tmem=self._use_tmem,
                enable_cleancache=wants_cleancache and self._use_tmem,
            )
            for job_index, job in enumerate(vm_spec.jobs):
                vm.add_job(
                    self._workload_factory(vm_spec, job, job_index),
                    start_at=job.start_at,
                    delay_after_previous=job.delay_after_previous,
                    label=job.display_label,
                )
            self.vms[vm_spec.name] = vm

    def _build_control_plane(self) -> None:
        relay_latency = self.config.sampling.relay_latency_s
        writeback_latency = self.config.sampling.writeback_latency_s
        self._stats_channel = NetlinkChannel(
            self.engine, latency_s=relay_latency, name="netlink-stats"
        )
        self._target_channel = NetlinkChannel(
            self.engine, latency_s=writeback_latency, name="netlink-targets"
        )
        self.privileged_tkm = PrivilegedTkm(
            self.hypervisor,
            stats_channel=self._stats_channel,
            target_channel=self._target_channel,
        )
        self.policy = create_policy(self.policy_spec)
        self.manager = MemoryManager(
            self.policy,
            stats_channel=self._stats_channel,
            target_channel=self._target_channel,
        )

    # -- lifecycle ------------------------------------------------------------
    def start(self) -> None:
        """Start the node's statistics sampler (if tmem is enabled)."""
        if self._use_tmem:
            self.hypervisor.start()

    def finalize(self) -> None:
        """Record the closing statistics sample and stop the sampler.

        The sample only extends the traces to the end of the run: the
        engine has stopped, so it is not relayed to the Memory Manager.
        """
        if self._use_tmem and not self.failed:
            self.hypervisor.sampler.record()
            self.hypervisor.stop()

    def check_invariants(self) -> None:
        if not self.failed:
            self.hypervisor.check_invariants()

    # -- failure / migration -----------------------------------------------------
    def mark_failed(self) -> None:
        """The node died: stop its sampler, freeze its state as-is.

        The hypervisor object is left untouched (its RAM/tmem contents
        are simply gone with the machine); accounting cleanup is neither
        possible nor meaningful, so invariants and finalization skip
        failed nodes.
        """
        self.failed = True
        if self._use_tmem:
            self.hypervisor.stop()

    def recover(self) -> None:
        """Rejoin after a transient failure.

        The cluster has already destroyed the stale domain carcasses and
        reset the spill client (the machine rebooted: all tmem pools are
        empty), so recovery here is just clearing the failure flag and
        restarting the statistics sampler.
        """
        self.failed = False
        if self._use_tmem:
            self.hypervisor.start()

    def adopt_vm(self, vm: "VirtualMachine") -> None:
        """Take ownership of a migrated VM (already re-homed onto this
        node's hypervisor)."""
        self.vms[vm.name] = vm

    def remove_vm(self, name: str) -> "VirtualMachine":
        """Hand a migrating VM over to its new node."""
        return self.vms.pop(name)

    # -- introspection ---------------------------------------------------------
    @property
    def total_tmem_pages(self) -> int:
        return self.hypervisor.total_tmem_pages

    @property
    def target_updates(self) -> int:
        return self.manager.stats.target_updates_sent if self.manager else 0

    @property
    def snapshots(self) -> int:
        return self.hypervisor.sampler.snapshots

    # -- result collection -----------------------------------------------------
    def collect_vm_results(self) -> Dict[str, VmResult]:
        """Build the per-VM result records for this node's guests."""
        vm_results: Dict[str, VmResult] = {}
        for name, vm in self.vms.items():
            runs = tuple(
                RunResult(
                    vm_name=name,
                    workload_name=run.workload_name,
                    run_index=run.run_index,
                    start_time_s=run.start_time,
                    end_time_s=run.end_time if run.end_time is not None else float("nan"),
                    duration_s=run.duration_s,
                    stopped_early=run.stopped_early,
                    phase_durations=dict(run.phase_durations),
                    phase_order=tuple(run.phase_order),
                )
                for run in vm.runs
                if run.finished
            )
            account = self.hypervisor.accounting.maybe_account(vm.vm_id)
            kernel_stats = vm.kernel.stats
            trace_name = f"tmem_used/vm{vm.vm_id}"
            peak_tmem = 0
            if trace_name in self.trace and len(self.trace.get(trace_name)):
                peak_tmem = int(self.trace.get(trace_name).max())
            cleancache_stats = None
            if vm.tkm is not None and vm.tkm.cleancache is not None:
                cc = vm.tkm.cleancache.stats
                cleancache_stats = {
                    "puts": cc.puts,
                    "failed_puts": cc.failed_puts,
                    "hits": cc.hits,
                    "misses": cc.misses,
                    "invalidates": cc.invalidates,
                }
            vm_results[name] = VmResult(
                vm_name=name,
                vm_id=vm.vm_id,
                runs=runs,
                major_faults=kernel_stats.major_faults,
                faults_from_tmem=kernel_stats.faults_from_tmem,
                faults_from_disk=kernel_stats.faults_from_disk,
                evictions_to_tmem=kernel_stats.evictions_to_tmem,
                evictions_to_disk=kernel_stats.evictions_to_disk,
                failed_tmem_puts=kernel_stats.failed_tmem_puts,
                time_in_tmem_ops_s=kernel_stats.time_in_tmem_ops_s,
                time_in_disk_io_s=kernel_stats.time_in_disk_io_s,
                cumul_puts_total=account.cumul_puts_total if account else 0,
                cumul_puts_succ=account.cumul_puts_succ if account else 0,
                cumul_puts_failed=account.cumul_puts_failed if account else 0,
                peak_tmem_pages=peak_tmem,
                cleancache=cleancache_stats,
            )
        return vm_results
