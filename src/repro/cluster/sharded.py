"""Every run's execution path, and sharded cluster execution: one engine
shard per node group, in worker processes.

:class:`ShardedClusterRunner` is the one place that chooses how a
scenario runs, and :func:`~repro.scenarios.runner.run_scenario` is its
one-call form.  It records the choice once, as a :class:`RunPath`:

* ``shared`` — one :class:`~repro.scenarios.runner.ScenarioRunner` in
  this process: every single-host scenario, every coupled topology
  under the exact engine, and any run that asks for one shard;
* ``shards`` — a decoupled topology with each *node group* on its own
  :class:`~repro.sim.engine.SimulationEngine` in a separate worker
  process, merged into one
  :class:`~repro.scenarios.results.ScenarioResult` whose fingerprint is
  bit-identical to the shared-engine
  :class:`~repro.cluster.cluster.Cluster` run of the same scenario;
* ``epoch`` — a coupled topology under the lookahead window protocol
  (one shard of it runs in this process, more in worker processes).

Why this is exact
-----------------
Two nodes of a cluster interact only through explicit machinery: the
remote-tmem spill port, the capacity coordinator, the contended
interconnect's per-link queues, failover/migration events and cross-node
phase triggers.  When none of those is in play the nodes are *decoupled*:
every event of node ``A`` commutes with every event of node ``B``, so the
shared engine is merely interleaving independent event streams.  Each
worker therefore builds the **full** cluster (identical construction
order, domain ids and per-name RNG streams) but starts and runs only its
own nodes' samplers and VMs; the relative order of a group's events —
the only order that can matter — is preserved, and every float is
computed by the same code on the same operands.

One shard protocol
------------------
Every sharded run is one driver loop over three shard steps:

1. ``begin`` starts the shard's nodes through
   :meth:`~repro.cluster.cluster.Cluster.start` (which also arms the
   invariant checker's timer when the run asked for the checker), starts
   their VMs and reports the nodes' states;
2. ``window(command)`` applies the driver's capacity steps to the
   shard's own nodes through the cluster replica
   (:meth:`~repro.cluster.cluster.Cluster.resize_pool`, the exact
   engine's resize), runs the shard's engine to the command's barrier
   time and reports ``now``, the still-running VMs, the window's
   cross-node messages and the node states — repeated until the driver
   declares the run finished;
3. ``finish(T*)`` runs the engine on to the run's stop time ``T*``,
   then finalizes and checks the shard's nodes through
   :meth:`~repro.cluster.cluster.Cluster.finalize` and
   :meth:`~repro.cluster.cluster.Cluster.check_invariants`.

A node state is the coordinator's
:class:`~repro.core.coordinator.NodeState` record, read by
:meth:`~repro.cluster.cluster.Cluster.node_state` as the exact engine
reads it for its own rounds.

The one global quantity of a decoupled run is the stop time: the shared
engine stops when the *last* VM cluster-wide goes idle, and until then
the already-idle nodes keep taking their one-second statistics samples.
Its driver therefore issues a single window that ends at the deadline
and stops early once the shard's own group is idle; ``T*`` is the
largest ``now`` any shard reports, and ``finish(T*)`` replays exactly
the sampler tail the shared engine would have interleaved.

Coupled topologies (remote spill, a coordinator, contention, failures,
migrations, cross-node or stop triggers) run the exact shared engine in
the calling process instead: sharding them across epoch barriers cannot
preserve bit-identity because spill admission and capacity decisions
read *instantaneous* peer state (free frame counts) that any lock-step
quantum would stale, and a lone worker would add its start-up and
nothing else.  The fallback keeps the fingerprint guarantee
unconditional; see PERFORMANCE.md for when sharding actually pays off.

The opt-in **epoch** cluster engine (``cluster_engine="epoch"``) lifts
the coupled-topology serialization by accepting exactly that staleness
under an explicit contract: its driver,
:class:`~repro.cluster.epoch.EpochDriver`, advances the shards in
conservative lookahead windows, exchanges cross-node effects as
canonically-ordered messages at window barriers, and admits spills
against barrier-computed quotas (see :mod:`repro.cluster.epoch`).  Epoch
results differ from the exact engine's but are deterministic and
*shard-count invariant*, pinned in
``tests/data/scenario_fingerprints_epoch.json``.  Scenarios that
relocate VMs across shards (failures, migrations) or inject cross-shard
events (cross-node/stop triggers) keep the exact fallback even under
the epoch engine; decoupled topologies keep the bit-exact parallel path
regardless of the engine selection.

A shard is reached through one of two transports with the same
``send``/``recv``/``close`` surface: a direct call in this process
(``inline=True``) or a pipe round trip to a worker process.  Workers
are forked from this process where that is safe (Linux, one Python
thread), so they start with ``repro`` already imported, and spawned
from a fresh interpreter everywhere else (:func:`_start_method`).  The
loop sends each step to every shard before it receives from any, so
worker shards run each window in parallel.  Results cross the process
boundary as the same strict-JSON dicts the parallel sweep backends use
(``ScenarioResult.to_dict`` / ``VmResult.to_dict``), so a sharded run
composes with everything that already consumes serialized results.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import sys
import threading
import time as _time
import weakref
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..config import SimulationConfig
from ..core.coordinator import NodeState
from ..core.policy import POLICIES
from ..errors import ClusterError, PolicyError
from ..params import parse_spec
from ..scenarios.results import ScenarioResult, VmResult
from ..scenarios.runner import (
    NO_TMEM_POLICY,
    ScenarioRunner,
    deadline_error,
    invariant_checks,
    resolve_config,
)
from ..scenarios.spec import ScenarioSpec
from ..sim.trace import TraceRecorder
from ..units import MemoryUnits
from ..workloads.registry import WORKLOADS
from .epoch import (
    EpochContext,
    EpochDriver,
    cross_node_trigger,
    epoch_fallback_reason,
    resolve_cluster_engine,
)

__all__ = [
    "RunPath",
    "ShardedClusterRunner",
    "coupling_reason",
    "epoch_fallback_reason",
    "resolve_cluster_engine",
    "resolve_shards",
]


def coupling_reason(spec: ScenarioSpec, *, use_tmem: bool = True) -> Optional[str]:
    """Why this scenario's nodes cannot run on independent engines.

    Returns ``None`` when the topology is *decoupled* (safe to shard one
    engine per node), else a human-readable reason used in diagnostics
    and to select the exact single-engine fallback.
    """
    topology = spec.topology
    if topology is None:
        return "single-host scenario (no cluster topology)"
    if len(topology.nodes) < 2:
        return "single-node topology"
    if use_tmem and topology.remote_spill:
        return "remote-tmem spill couples the nodes"
    if use_tmem and topology.coordinator:
        return "capacity coordinator couples the nodes"
    if topology.contended:
        return "contended interconnect shares per-link queues"
    if topology.failures:
        return "node failures fail VMs over across nodes"
    if topology.migrations:
        return "planned VM migrations cross nodes"
    if topology.fault_plan is not None:
        return "fault plan injects cross-node faults"
    trigger = cross_node_trigger(spec)
    if trigger is not None:
        return (
            f"phase trigger {trigger.watch_vm!r} -> {trigger.start_vm!r} "
            "crosses nodes"
        )
    if spec.stop_trigger is not None:
        return "stop trigger halts every VM cluster-wide"
    return None


def resolve_shards(
    shards: "int | str | None", group_count: int
) -> int:
    """Turn a ``--shards`` value (``N``/``"auto"``/``None``) into a count."""
    if shards is None:
        return 1
    if shards == "auto":
        return max(1, min(group_count, os.cpu_count() or 1))
    try:
        count = int(shards)
    except (TypeError, ValueError):
        raise ClusterError(
            f"shards must be a positive integer or 'auto', got {shards!r}"
        ) from None
    if count < 1:
        raise ClusterError(f"shards must be >= 1, got {count}")
    return min(count, group_count)


def _require_shardable(
    spec: ScenarioSpec, config: SimulationConfig, policy_spec: str
) -> None:
    """Fail with a clear :class:`ClusterError` before any worker starts.

    A worker receives the scenario, config and policy spec pickled, and
    rebuilds the run from them by name, so (a) they must pickle and (b)
    every workload kind and the policy must be one the ``repro`` package
    registers itself.  A spawned worker starts from a fresh interpreter
    and has nothing else; a forked one would also inherit whatever the
    calling program registered.  Refusing such names under either start
    method means a run is accepted or refused the same way on every
    host, instead of running on Linux and failing inside a worker on
    macOS.
    """
    for vm in spec.vms:
        for job in vm.jobs:
            try:
                cls = WORKLOADS.lookup(job.kind)
            except Exception as exc:
                raise ClusterError(
                    f"VM {vm.name!r} uses workload kind {job.kind!r} which "
                    f"is not registered ({exc}); sharded execution cannot "
                    "rebuild it in a worker process"
                ) from None
            _require_builtin(
                cls, f"VM {vm.name!r} uses custom workload kind {job.kind!r}"
            )
    if policy_spec != NO_TMEM_POLICY:
        name, _ = parse_spec(policy_spec, PolicyError, "policy")
        _require_builtin(
            POLICIES.lookup(name), f"policy {policy_spec!r} is a custom policy"
        )
    for label, value in (("scenario spec", spec), ("config", config)):
        try:
            pickle.dumps(value)
        except Exception as exc:
            raise ClusterError(
                f"{label} for {spec.name!r} is not serializable for sharded "
                f"execution ({type(exc).__name__}: {exc}); run without "
                "--shards"
            ) from None


def _import_shard_modules(spec: ScenarioSpec, policy_spec: str, *, checker: bool) -> None:
    """Import, at set-up, the modules a shard task builds *spec*'s run
    from by name: the modules of its workload kinds and its policy and,
    when the shards arm it, the invariant checker's.  A worker forked
    later starts with every one of them, and :meth:`~ShardedClusterRunner.run`
    imports none.  A name that does not resolve is left to the checks of
    ``run()``."""
    for vm in spec.vms:
        for job in vm.jobs:
            WORKLOADS.get(job.kind)
    if policy_spec != NO_TMEM_POLICY:
        POLICIES.get(policy_spec.partition(":")[0].strip())
    if checker:
        from . import faults  # noqa: F401


def _require_builtin(cls: type, what: str) -> None:
    """Refuse *cls* for worker processes unless ``repro`` itself defines it."""
    if not (cls.__module__ or "").startswith("repro."):
        raise ClusterError(
            f"{what} ({cls.__module__}.{cls.__qualname__}); shard workers "
            "rebuild a run only from what the repro package registers, "
            "whatever their start method — run custom workloads and "
            "policies without --shards (or inline=True)"
        )


def _chunk(groups: Sequence[Tuple[str, ...]], buckets: int) -> List[Tuple[str, ...]]:
    """Partition node groups into *buckets* contiguous, non-empty chunks."""
    buckets = min(buckets, len(groups))
    out: List[Tuple[str, ...]] = []
    start = 0
    for i in range(buckets):
        size = len(groups) // buckets + (1 if i < len(groups) % buckets else 0)
        chunk = groups[start:start + size]
        start += size
        out.append(tuple(name for group in chunk for name in group))
    return out


class _ShardTask:
    """One shard's share of a sharded run: the three protocol steps.

    The task builds the full cluster replica but starts, drives,
    finalizes and checks only the nodes named in ``group`` on its
    private engine.  Under the epoch engine an
    :class:`~repro.cluster.epoch.EpochContext` carries the driver's
    window inputs into the replica and collects the window's outgoing
    cross-node messages.
    """

    def __init__(self, payload: Dict[str, Any]) -> None:
        self.spec: ScenarioSpec = payload["spec"]
        self.group: Tuple[str, ...] = tuple(payload["group"])
        self.ctx = None
        if payload["epoch"]:
            self.ctx = EpochContext.for_spec(self.spec, payload["config"])
        self.runner = ScenarioRunner(
            self.spec, payload["policy_spec"], config=payload["config"],
            epoch=self.ctx, check_invariants=payload["check_invariants"],
        )

    def begin(self) -> Dict[str, Any]:
        """Start the owned nodes and VMs and report the nodes' states."""
        runner = self.runner
        cluster = runner.cluster
        self._nodes = [
            node for node in cluster.nodes if node.name in self.group
        ]
        cluster.start(self._nodes)
        self._vms = {
            name: vm
            for node in self._nodes
            for name, vm in node.vms.items()
        }
        for name, vm in self._vms.items():
            if name not in runner._trigger_started_vms:
                vm.start()
        return {"nodes": self._states()}

    def _states(self) -> Dict[str, NodeState]:
        """Each owned node's coordinator record, keyed by node name."""
        cluster = self.runner.cluster
        return {node.name: cluster.node_state(node) for node in self._nodes}

    def window(self, command: Dict[str, Any]) -> Dict[str, Any]:
        """Run one window and report its end state and cross-shard effects.

        Applies the driver's capacity steps to the owned nodes, opens the
        epoch window when there is one, and runs the engine to
        ``command["until"]`` — stopping early once the group is idle
        when ``command["stop_when_idle"]`` is set.
        """
        engine = self.runner.engine
        for name, delta in command["capacity"]:
            if name in self.group:
                self.runner.cluster.resize_pool(name, delta)
        if self.ctx is not None:
            self.ctx.begin_window(command["quota"], command["busy"])
        stop_when = None
        if command["stop_when_idle"]:
            vms = list(self._vms.values())

            def stop_when() -> bool:
                return all(vm.is_idle for vm in vms)

        engine.run(until=command["until"], stop_when=stop_when)
        return {
            "now": engine.now,
            "running": [
                name for name, vm in self._vms.items() if not vm.is_idle
            ],
            "messages": self.ctx.drain() if self.ctx is not None else [],
            "nodes": self._states(),
        }

    def finish(self, t_star: float) -> Dict[str, Any]:
        """Run on to the global stop time *t_star* and report the results."""
        runner = self.runner
        engine = runner.engine
        if t_star > engine.now:
            # Replay the sampler tail the shared engine would have
            # interleaved between this group going idle and the global
            # stop.
            engine.run(until=t_star)
        cluster = runner.cluster
        cluster.finalize(self._nodes)
        cluster.check_invariants(self._nodes)
        vm_results: Dict[str, Dict[str, Any]] = {}
        for node in self._nodes:
            for name, result in node.collect_vm_results().items():
                vm_results[name] = result.to_dict()

        owned = {node.name for node in self._nodes}
        owned.update(f"vm{vm.vm_id}" for vm in self._vms.values())
        trace: Dict[str, Any] = {}
        for name, series in runner.trace.as_dict().items():
            if name.rpartition("/")[2] in owned:
                trace[name] = series.to_dict()

        described = cluster.describe_nodes()
        return {
            "vms": vm_results,
            "trace": trace,
            "nodes": {name: described[name] for name in owned & set(described)},
            "tmem_pages": sum(node.total_tmem_pages for node in self._nodes),
            "target_updates": sum(node.target_updates for node in self._nodes),
            "snapshots": sum(node.snapshots for node in self._nodes),
            "events": engine.events_executed,
            "pages": sum(
                vm.kernel.stats.accesses for vm in self._vms.values()
            ),
        }


#: The shard protocol's steps, in the order a run takes them.
_STEPS = ("begin", "window", "finish")


def _start_method() -> str:
    """The multiprocessing start method of shard workers.

    ``fork`` on Linux when this process runs one Python thread: the
    worker starts from this process's memory, with ``repro`` already
    imported, which is everything a spawned worker does before its
    first window.  ``spawn`` otherwise: on macOS and Windows, and for
    threaded callers such as the sweep service's in-process workers,
    whose other threads could hold a lock across the fork.  Never
    ``forkserver``: its workers are children of the server, not of the
    caller, so the caller's ``RUSAGE_CHILDREN`` would not see their CPU.
    """
    if sys.platform == "linux" and threading.active_count() == 1:
        return "fork"
    return "spawn"


#: The parent end of every worker pipe this process holds open.  A forked
#: worker inherits a copy of each, and while any copy is open the worker at
#: the far end never reads EOF when this process closes its end or dies.
#: Each worker therefore closes its inherited copies before anything else;
#: a spawned worker starts with this set empty.  The set is per process,
#: not per run, because a fork copies every descriptor the process holds.
#: It holds the ends weakly, so an end dropped without :meth:`close` is
#: still closed when it is garbage-collected.
_PARENT_ENDS: "weakref.WeakSet[Any]" = weakref.WeakSet()


def _shard_worker_main(conn) -> None:
    """Entry point of one shard worker, forked or spawned.

    Closes the parent pipe ends it inherited, receives the task payload,
    then answers steps until ``finish``.
    """
    for end in _PARENT_ENDS:
        end.close()
    try:
        task = _ShardTask(conn.recv())
        step = None
        while step != "finish":
            step, args = conn.recv()
            if step not in _STEPS:  # pragma: no cover - protocol breach
                raise ClusterError(f"shard worker received step {step!r}")
            conn.send(("ok", getattr(task, step)(*args)))
    except Exception as exc:  # surfaced as a clear ClusterError in the parent
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass
    finally:
        conn.close()


class _InlineShard:
    """Shard transport in this process: each step is a direct call."""

    def __init__(self, payload: Dict[str, Any]) -> None:
        self.task = _ShardTask(payload)
        self._reply: Any = None

    def send(self, step: str, *args: Any) -> None:
        self._reply = getattr(self.task, step)(*args)

    def recv(self) -> Any:
        return self._reply

    def close(self) -> None:
        pass


_WORKER_EXITED = (
    "shard worker exited without reporting a result (it may have been "
    "killed by the OS)"
)


class _ProcessShard:
    """Shard transport to a worker process: one pipe round trip per step.

    Owns the worker's whole life: the start (forked or spawned, see
    :func:`_start_method`), the payload hand-off, a dead pipe surfacing
    as :class:`ClusterError` on send and on receive alike, and the join
    (or terminate and reap) on :meth:`close`.
    """

    def __init__(self, payload: Dict[str, Any]) -> None:
        context = multiprocessing.get_context(_start_method())
        self.conn, child_conn = context.Pipe()
        _PARENT_ENDS.add(self.conn)
        self.process = context.Process(
            target=_shard_worker_main, args=(child_conn,), daemon=True
        )
        self.process.start()
        child_conn.close()
        self._send(payload)

    def send(self, step: str, *args: Any) -> None:
        self._send((step, args))

    def _send(self, message: Any) -> None:
        try:
            self.conn.send(message)
        except (BrokenPipeError, ConnectionResetError):
            raise ClusterError(_WORKER_EXITED) from None

    def recv(self) -> Any:
        try:
            kind, data = self.conn.recv()
        except (EOFError, ConnectionResetError):
            raise ClusterError(_WORKER_EXITED) from None
        if kind == "error":
            raise ClusterError(f"shard worker failed: {data}")
        return data

    def close(self) -> None:
        _PARENT_ENDS.discard(self.conn)
        self.conn.close()
        self.process.join(timeout=10.0)
        if self.process.is_alive():  # pragma: no cover - hung worker
            self.process.terminate()
            self.process.join()


def _step(shards: Sequence[Any], step: str, *args: Any) -> List[Dict[str, Any]]:
    """Send *step* to every shard, then collect the replies in shard order."""
    for shard in shards:
        shard.send(step, *args)
    return [shard.recv() for shard in shards]


class _StopDriver:
    """The decoupled shards' stop rule, behind :class:`EpochDriver`'s interface.

    One window runs every shard to the deadline, each stopping early
    once its own group is idle; the run then stops at the largest
    ``now`` any shard reached.  Decoupled shards exchange nothing, so
    the cluster bookkeeping stays zero.
    """

    capacity_moves = 0
    pages_moved = 0
    contended = False

    def __init__(
        self, spec: ScenarioSpec, policy_spec: str, config: SimulationConfig
    ) -> None:
        self.spec = spec
        self.policy_spec = policy_spec
        self.deadline = min(spec.max_duration_s, config.max_simulated_time_s)
        self.finished_at: Optional[float] = None

    def absorb_init(self, reports: List[Dict[str, Any]]) -> None:
        pass

    def window_command(self) -> Dict[str, Any]:
        return {"until": self.deadline, "stop_when_idle": True, "capacity": ()}

    def absorb(self, reports: List[Dict[str, Any]]) -> None:
        running = [name for report in reports for name in report["running"]]
        if running:
            raise deadline_error(
                self.spec, self.policy_spec, self.deadline, running
            )
        self.finished_at = max(report["now"] for report in reports)

    @property
    def finished(self) -> bool:
        return self.finished_at is not None


class RunPath(NamedTuple):
    """The execution path of one run, decided once by its runner."""

    #: ``"shared"`` (one engine in this process), ``"shards"`` (decoupled
    #: shard workers) or ``"epoch"`` (the lookahead window protocol).
    engine: str
    #: Shard workers the run drives; 0 on the shared engine.
    shards: int
    #: Why the nodes cannot run on independent engines (:func:`coupling_reason`).
    coupling_reason: Optional[str]
    #: Why the epoch engine could not run the scenario; set only when the
    #: epoch engine was asked for.
    epoch_fallback: Optional[str] = None

    def __str__(self) -> str:
        if self.engine == "shards":
            return f"{self.shards} shard workers"
        if self.engine == "epoch":
            where = "in this process" if self.shards == 1 else "workers"
            return f"{self.shards} epoch shard {where}: {self.coupling_reason}"
        reason = self.epoch_fallback or self.coupling_reason
        return f"shared engine in this process: {reason or 'one shard holds every node'}"


class ShardedClusterRunner:
    """Run one scenario on the execution path it calls for.

    :func:`~repro.scenarios.runner.run_scenario` is the one-call form:
    ``ShardedClusterRunner(spec, policy).run()`` returns a
    :class:`ScenarioResult` whose ``fingerprint()`` equals the
    shared-engine run's under the exact engine, for **every** spec —
    decoupled topologies run genuinely in parallel, everything else
    takes the shared engine in this process.  :attr:`path` records the
    path the constructor chose.

    Parameters
    ----------
    shards:
        ``"auto"`` (one worker per node group, capped at the CPU count),
        a positive integer, or ``None`` for a single shard (which runs
        the shared engine, or one epoch shard, in this process).
    inline:
        Run the shard tasks sequentially in this process instead of in
        worker processes.  Same simulation, same fingerprints — used by
        tests and useful on single-core hosts, where workers only
        time-slice and add their start-up and per-window IPC.  A single
        shard always runs in this process: a worker would only add its
        start-up and a second build of the cluster.
    cluster_engine:
        ``"exact"`` (``None`` means the same) or ``"epoch"``.
    check_invariants:
        Arm the inline invariant checker in every shard's runner (and in
        the shared-engine run); ``None`` leaves it to each runner's
        ``SMARTMEM_CHECK_INVARIANTS`` environment variable.  Epoch
        shards stay unarmed: their hosted pages are never materialized.
    """

    def __init__(
        self,
        spec: ScenarioSpec,
        policy_spec: str,
        *,
        shards: "int | str | None" = "auto",
        config: Optional[SimulationConfig] = None,
        units: Optional[MemoryUnits] = None,
        seed: Optional[int] = None,
        inline: bool = False,
        cluster_engine: Optional[str] = "exact",
        check_invariants: Optional[bool] = None,
    ) -> None:
        self.spec = spec
        self.policy_spec = policy_spec
        self.config = resolve_config(config, units, seed)
        self.inline = inline
        self.check_invariants = check_invariants
        self.use_tmem = policy_spec != NO_TMEM_POLICY
        coupled = coupling_reason(spec, use_tmem=self.use_tmem)
        epoch, fallback = False, None
        if resolve_cluster_engine(cluster_engine) == "epoch":
            fallback = epoch_fallback_reason(spec, use_tmem=self.use_tmem)
            # Decoupled topologies keep the bit-exact parallel path.  The
            # epoch protocol runs even at one shard, so the shard count
            # never changes epoch results.
            epoch = coupled is not None and fallback is None
        groups: List[Tuple[str, ...]] = []
        if coupled is None or epoch:
            groups = [(node.name,) for node in spec.topology.nodes]
        #: Node names per shard.
        self.buckets = _chunk(groups, resolve_shards(shards, len(groups)))
        if epoch or len(self.buckets) > 1:
            engine, count = ("epoch" if epoch else "shards"), len(self.buckets)
        else:
            engine, count = "shared", 0
        #: The path :meth:`run` takes.
        self.path = RunPath(engine, count, coupled, fallback)
        if engine != "shared":
            _import_shard_modules(
                spec, policy_spec,
                checker=engine == "shards" and invariant_checks(check_invariants),
            )
        #: Cluster-wide engine events / guest page accesses of the last
        #: run() — summed across shards (the benchmark harness reads
        #: these; they match the shared-engine counters).
        self.events_executed = 0
        self.pages_accessed = 0

    # -- execution -----------------------------------------------------------
    def _payload(self, bucket: Tuple[str, ...]) -> Dict[str, Any]:
        return {
            "spec": self.spec,
            "policy_spec": self.policy_spec,
            "config": self.config,
            "group": bucket,
            "epoch": self.path.engine == "epoch",
            "check_invariants": self.check_invariants,
        }

    def run(self) -> ScenarioResult:
        wall_start = _time.perf_counter()
        shared = self.path.engine == "shared"
        outcome = self._run_shared() if shared else self._run_shards()
        outcome.wall_clock_s = _time.perf_counter() - wall_start
        return outcome

    def _run_shared(self) -> ScenarioResult:
        runner = ScenarioRunner(
            self.spec, self.policy_spec, config=self.config,
            check_invariants=self.check_invariants,
        )
        result = runner.run()
        self.events_executed = runner.engine.events_executed
        self.pages_accessed = sum(
            vm.kernel.stats.accesses for vm in runner.vms.values()
        )
        return result

    def _run_shards(self) -> ScenarioResult:
        """The one driver loop: begin, windows until finished, finish."""
        if self.path.engine == "epoch":
            driver: "EpochDriver | _StopDriver" = EpochDriver(
                self.spec, self.policy_spec, self.config, use_tmem=self.use_tmem
            )
        else:
            driver = _StopDriver(self.spec, self.policy_spec, self.config)
        inline = self.inline or len(self.buckets) == 1
        if not inline:
            _require_shardable(self.spec, self.config, self.policy_spec)
        transport = _InlineShard if inline else _ProcessShard
        shards: List[Any] = []
        try:
            for bucket in self.buckets:
                shards.append(transport(self._payload(bucket)))
            driver.absorb_init(_step(shards, "begin"))
            while not driver.finished:
                driver.absorb(_step(shards, "window", driver.window_command()))
            finals = _step(shards, "finish", driver.finished_at)
        finally:
            for shard in shards:
                shard.close()
        return self._assemble(driver, finals)

    # -- assembly ------------------------------------------------------------
    def _assemble(
        self, driver: "EpochDriver | _StopDriver", finals: List[Dict[str, Any]]
    ) -> ScenarioResult:
        topology = self.spec.topology
        assert topology is not None
        self.events_executed = sum(final["events"] for final in finals)
        self.pages_accessed = sum(final["pages"] for final in finals)
        vms: Dict[str, VmResult] = {}
        trace_data: Dict[str, Any] = {}
        node_info: Dict[str, Dict[str, Any]] = {}
        for final in finals:
            for name, data in final["vms"].items():
                vms[name] = VmResult.from_dict(data)
            for name, data in final["trace"].items():
                if name in trace_data:  # pragma: no cover - ownership bug
                    raise ClusterError(
                        f"trace series {name!r} produced by two shards"
                    )
                trace_data[name] = data
            node_info.update(final["nodes"])
        cluster_info = {
            "topology": {
                "node_count": len(topology.nodes),
                "remote_spill": topology.remote_spill,
                "coordinator": topology.coordinator,
            },
            # Shared-engine key order (node placement order), although
            # the canonical fingerprint form sorts keys anyway.
            "nodes": {
                name: node_info[name] for name in topology.node_names()
            },
            "capacity_moves": driver.capacity_moves,
            "interconnect_pages_moved": driver.pages_moved,
        }
        if driver.contended:
            cluster_info["links"] = driver.describe_links()
            cluster_info["max_queue_depth"] = driver.max_queue_depth
        return ScenarioResult(
            scenario_name=self.spec.name,
            policy_spec=self.policy_spec,
            seed=self.config.seed,
            total_tmem_pages=sum(final["tmem_pages"] for final in finals),
            simulated_duration_s=driver.finished_at,
            vms=vms,
            trace=TraceRecorder.from_dict(trace_data),
            target_updates=sum(final["target_updates"] for final in finals),
            snapshots=sum(final["snapshots"] for final in finals),
            wall_clock_s=0.0,
            cluster=cluster_info,
        )
