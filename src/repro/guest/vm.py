"""Virtual machine: guest kernel + TKM + workload driver.

:class:`VirtualMachine` glues together the pieces of one guest: the domain
record held by the hypervisor, the guest kernel memory model, the tmem
kernel module (frontswap client), and a driver that executes workload jobs
on the simulation engine.

Jobs are queued with :meth:`add_job`; each job is a fresh workload
instance plus a start condition (an absolute start time, or a delay after
the previous job finishes — Scenario 1 runs in-memory-analytics twice with
a five-second sleep in between).  The driver pulls workload steps one at a
time: at simulated time ``t`` it services the step's page accesses through
the guest kernel, obtaining the memory-stall latency, and schedules the
next step at ``t + compute_time + stall``.  Per-run and per-phase wall
clock times are recorded in :class:`WorkloadRun` records — these are the
"running time" numbers reported in Figures 3, 5, 7 and 9.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

from ..config import SimulationConfig
from ..errors import ScenarioError
from ..hypervisor.xen import DomainRecord, Hypervisor
from ..sim.engine import SimulationEngine
from ..sim.events import EventPriority
from ..workloads.base import Workload, WorkloadStep
from .kernel import GuestKernel
from .tkm import TmemKernelModule

__all__ = ["WorkloadRun", "VirtualMachine"]

PhaseListener = Callable[["VirtualMachine", str, float], None]
CompletionListener = Callable[["VirtualMachine", "WorkloadRun"], None]


@dataclass
class WorkloadRun:
    """Timing record of one workload execution on one VM."""

    vm_name: str
    workload_name: str
    run_index: int
    start_time: float
    end_time: Optional[float] = None
    stopped_early: bool = False
    #: Wall-clock duration of each phase, in completion order.
    phase_durations: Dict[str, float] = field(default_factory=dict)
    #: Order in which phases were first entered.
    phase_order: List[str] = field(default_factory=list)
    steps_executed: int = 0

    @property
    def finished(self) -> bool:
        return self.end_time is not None

    @property
    def duration_s(self) -> float:
        if self.end_time is None:
            raise ScenarioError(
                f"run {self.run_index} of {self.vm_name} has not finished"
            )
        return self.end_time - self.start_time


@dataclass
class _Job:
    """One queued workload execution."""

    workload_factory: Callable[[], Workload]
    start_at: Optional[float] = None
    delay_after_previous: float = 0.0
    label: str = ""


class VirtualMachine:
    """A guest VM bound to a hypervisor and driven by workload jobs."""

    def __init__(
        self,
        hypervisor: Hypervisor,
        engine: SimulationEngine,
        config: SimulationConfig,
        *,
        name: str,
        ram_pages: int,
        swap_pages: int,
        vcpus: int = 1,
        use_tmem: bool = True,
        enable_cleancache: bool = False,
    ) -> None:
        self.name = name
        self.config = config
        self._engine = engine
        self._hypervisor = hypervisor

        self.domain: DomainRecord = hypervisor.create_domain(
            name, ram_pages=ram_pages, vcpus=vcpus
        )
        self.vm_id = self.domain.vm_id

        self.tkm: Optional[TmemKernelModule] = None
        frontswap = None
        if use_tmem:
            self.tkm = TmemKernelModule(
                hypervisor, self.vm_id, enable_cleancache=enable_cleancache
            )
            frontswap = self.tkm.frontswap

        self.kernel = GuestKernel(
            self.vm_id,
            ram_pages=ram_pages,
            swap_pages=swap_pages,
            config=config,
            disk=hypervisor.swap_disk,
            frontswap=frontswap,
            cleancache=self.tkm.cleancache if self.tkm is not None else None,
        )

        self._jobs: List[_Job] = []
        self._job_cursor = 0
        self._runs: List[WorkloadRun] = []
        self._current_run: Optional[WorkloadRun] = None
        self._current_steps: Optional[Iterator[WorkloadStep]] = None
        self._current_phase: Optional[str] = None
        self._phase_started_at = 0.0
        self._stop_requested = False
        self._idle = True
        self._suspended = False
        #: Deferred driver continuation captured while suspended.
        self._pending_resume: Optional[Callable[[], None]] = None
        self._phase_listeners: List[PhaseListener] = []
        self._completion_listeners: List[CompletionListener] = []

    # -- observers -----------------------------------------------------------
    def on_phase_change(self, listener: PhaseListener) -> None:
        """Call *listener(vm, phase, time)* whenever a new phase starts."""
        self._phase_listeners.append(listener)

    def on_run_complete(self, listener: CompletionListener) -> None:
        self._completion_listeners.append(listener)

    # -- job management ----------------------------------------------------------
    def add_job(
        self,
        workload_factory: Callable[[], Workload],
        *,
        start_at: Optional[float] = None,
        delay_after_previous: float = 0.0,
        label: str = "",
    ) -> None:
        """Queue a workload execution.

        ``start_at`` schedules the job at an absolute simulated time (used
        for staggered starts); otherwise the job starts
        ``delay_after_previous`` seconds after the preceding job finishes.
        The first job defaults to starting at time 0.
        """
        if start_at is not None and start_at < 0:
            raise ScenarioError(f"start_at must be >= 0, got {start_at}")
        if delay_after_previous < 0:
            raise ScenarioError(
                f"delay_after_previous must be >= 0, got {delay_after_previous}"
            )
        self._jobs.append(
            _Job(
                workload_factory=workload_factory,
                start_at=start_at,
                delay_after_previous=delay_after_previous,
                label=label,
            )
        )

    def start(self) -> None:
        """Schedule the first queued job.  Called by the scenario runner."""
        if not self._jobs:
            return
        self._schedule_next_job(previous_end=self._engine.now)

    def request_stop(self) -> None:
        """Stop the VM after the step currently in flight (usemem scenario)."""
        self._stop_requested = True

    # -- migration support -----------------------------------------------------
    def suspend(self) -> None:
        """Pause the workload driver (migration state copy in progress).

        The driver's in-flight step/job-start event still fires, but its
        continuation is captured instead of executed; :meth:`resume`
        replays it.  The simulated time spent suspended naturally extends
        the run's wall clock — exactly the migration downtime.
        """
        self._suspended = True

    def resume(self) -> None:
        """Resume the workload driver after a migration completes."""
        if not self._suspended:
            return
        self._suspended = False
        continuation = self._pending_resume
        self._pending_resume = None
        if continuation is not None:
            continuation()

    def rehome(self, hypervisor: Hypervisor) -> None:
        """Re-bind this VM to another node's hypervisor (VM migration).

        The guest keeps its identity: the cluster-wide domain id (and
        therefore every ``tmem_used/vm<id>`` trace name), its kernel
        state (resident set, swap area — the virtual disk is shared
        storage) and its frontswap/cleancache clients.  A fresh domain
        record and fresh (empty) tmem pools are created on the target;
        the cluster is responsible for the remote-spill index handover
        and the hypervisor-side accounting copy.
        """
        record = hypervisor.create_domain(
            self.name,
            ram_pages=self.domain.ram_pages,
            vcpus=self.domain.vcpus,
            vm_id=self.vm_id,
        )
        self._hypervisor = hypervisor
        self.domain = record
        if self.tkm is not None:
            self.tkm.rehome(hypervisor)
        self.kernel.rebind_disk(hypervisor.swap_disk)

    # -- results ---------------------------------------------------------------------
    @property
    def runs(self) -> List[WorkloadRun]:
        return list(self._runs)

    @property
    def is_idle(self) -> bool:
        """True when no job is executing and none remains to be scheduled."""
        return self._idle and self._job_cursor >= len(self._jobs)

    @property
    def tmem_pages(self) -> int:
        return self.kernel.tmem_pages

    # -- internal driver ---------------------------------------------------------------
    def _schedule_next_job(self, *, previous_end: float) -> None:
        if self._job_cursor >= len(self._jobs) or self._stop_requested:
            self._idle = True
            return
        job = self._jobs[self._job_cursor]
        self._job_cursor += 1
        if job.start_at is not None:
            start_time = max(job.start_at, self._engine.now)
        else:
            start_time = previous_end + job.delay_after_previous
        self._idle = False
        self._engine.schedule_call_at(
            start_time,
            self._begin_run,
            job,
            priority=EventPriority.WORKLOAD,
            label=f"{self.name}:job-start",
        )

    def _begin_run(self, job: _Job) -> None:
        if self._suspended:
            self._pending_resume = lambda: self._begin_run(job)
            return
        workload = job.workload_factory()
        run = WorkloadRun(
            vm_name=self.name,
            workload_name=job.label or workload.name,
            run_index=len(self._runs),
            start_time=self._engine.now,
        )
        self._runs.append(run)
        self._current_run = run
        self._current_steps = iter(workload)
        self._current_phase = None
        self._phase_started_at = self._engine.now
        self._execute_next_step()

    def _enter_phase(self, phase: str) -> None:
        run = self._current_run
        assert run is not None
        now = self._engine.now
        if self._current_phase is not None:
            elapsed = now - self._phase_started_at
            run.phase_durations[self._current_phase] = (
                run.phase_durations.get(self._current_phase, 0.0) + elapsed
            )
        self._current_phase = phase
        self._phase_started_at = now
        if phase not in run.phase_order:
            run.phase_order.append(phase)
        for listener in self._phase_listeners:
            listener(self, phase, now)

    def _execute_next_step(self) -> None:
        """Execute workload steps, fast-forwarding while provably safe.

        Each iteration services one step's page accesses at the current
        simulated time and computes when the next step begins.  When the
        engine grants a fast-forward — the next step is *strictly*
        earlier than every other live event, the run's ``until`` bound
        and ``stop_when`` predicate permitting — the loop advances the
        clock inline and continues, skipping the heap round-trip a
        per-step event would cost.  Otherwise the next step is scheduled
        as an ordinary event (equal timestamps must go through the heap
        so priority/insertion ordering applies), which keeps the event
        order — and therefore every simulated quantity — bit-identical
        to the non-fast-forwarded execution.
        """
        if self._suspended:
            self._pending_resume = self._execute_next_step
            return
        engine = self._engine
        kernel_access = self.kernel.access
        while True:
            run = self._current_run
            steps = self._current_steps
            assert run is not None and steps is not None

            if self._stop_requested:
                self._finish_run(stopped_early=True)
                return
            try:
                step = next(steps)
            except StopIteration:
                self._finish_run(stopped_early=False)
                return

            if step.phase != self._current_phase:
                self._enter_phase(step.phase)

            now = engine.now
            outcome = kernel_access(step.pages, now=now, write=step.write)
            free_latency = 0.0
            if step.frees:
                free_latency = self.kernel.free(step.frees, now=now)
            run.steps_executed += 1

            duration = step.compute_time_s + outcome.latency_s + free_latency
            if engine.try_fast_forward(now + duration):
                continue
            engine.schedule_call_after(
                duration,
                self._execute_next_step,
                priority=EventPriority.WORKLOAD,
                label=f"{self.name}:step",
            )
            return

    def _finish_run(self, *, stopped_early: bool) -> None:
        run = self._current_run
        assert run is not None
        now = self._engine.now
        if self._current_phase is not None:
            elapsed = now - self._phase_started_at
            run.phase_durations[self._current_phase] = (
                run.phase_durations.get(self._current_phase, 0.0) + elapsed
            )
        run.end_time = now
        run.stopped_early = stopped_early
        # The benchmark process exits: its anonymous memory is freed, its
        # swap slots are discarded and its tmem copies are flushed, so a
        # subsequent run (Scenario 1 runs the benchmark twice) starts cold
        # and the freed tmem capacity becomes available to the other VMs.
        self.kernel.release_all(now=now)
        self._current_run = None
        self._current_steps = None
        self._current_phase = None
        for listener in self._completion_listeners:
            listener(self, run)
        self._schedule_next_job(previous_end=now)
