"""Pluggable execution backends for experiment sweeps.

A backend takes a sequence of :class:`~repro.experiments.spec.ExperimentPoint`
and returns one :class:`~repro.scenarios.results.ScenarioResult` per
point, in input order.  Two implementations ship with the package:

* :class:`SerialBackend` — runs every point in-process, one after the
  other.  Zero overhead; the right choice for small sweeps and tests.
  A point that raises a :class:`~repro.errors.ReproError` is reported
  through ``on_failure`` and the sweep goes on (as in the process pool).
* :class:`ProcessPoolBackend` — fans points out to a pool of worker
  processes (``multiprocessing`` via ``concurrent.futures``).  Results
  cross the process boundary as the strict-JSON dicts produced by
  ``ScenarioResult.to_dict``, so a parallel run is bit-identical to a
  serial run of the same points (compare ``ScenarioResult.fingerprint``).
* :class:`RemoteBackend` — hosts a lease-based HTTP job queue
  (:mod:`repro.experiments.service`) and drives worker clients against
  it over real loopback HTTP.  Workers are restarted when they crash,
  expired leases are reassigned, transient failures retry with backoff,
  and points that exhaust their retry budget are dead-lettered and
  reported through ``on_failure`` instead of aborting the sweep.

All of them call the shared :func:`execute_point`, so the simulation
path — and therefore every per-point fingerprint — is the same
regardless of backend.
"""

from __future__ import annotations

import os
import threading
import time
from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..errors import ExperimentError, ReproError
from ..scenarios.results import ScenarioResult
from ..scenarios.runner import run_scenario
from .spec import ExperimentPoint

__all__ = [
    "execute_point",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "RemoteBackend",
    "create_backend",
    "available_backends",
]

#: Callback invoked as each point finishes: (point, result).
ResultCallback = Callable[[ExperimentPoint, ScenarioResult], None]

#: Callback invoked when a point permanently fails (dead-lettered):
#: (point, error description).
FailureCallback = Callable[[ExperimentPoint, str], None]


def execute_point(
    point: ExperimentPoint,
    *,
    shards: "int | str | None" = None,
    inline_shards: bool = False,
    cluster_engine: Optional[str] = None,
) -> ScenarioResult:
    """Run one experiment point and return its result.

    The point's scenario string compiles as the family-mode document
    ``smartmem run`` compiles
    (:func:`~repro.scenarios.dsl.compiler.compile_spec_string`), and the
    spec runs through :func:`~repro.scenarios.runner.run_scenario`, whose
    runner chooses the execution path.  *shards* can put cluster points
    on shard workers (bit-identical fingerprints, so sharded and
    unsharded sweeps archive and resume interchangeably).
    *inline_shards* runs the shard tasks in-process — the right mode
    inside a pool worker, where nesting process spawns would
    oversubscribe the host.  *cluster_engine* selects the cluster
    engine ("exact"/"epoch"); epoch results are deterministic and
    shard-count invariant but not bit-identical to exact ones, so keep
    epoch sweeps in their own results directory.
    """
    from ..scenarios.dsl.compiler import compile_spec_string

    return run_scenario(
        compile_spec_string(point.scenario, point.scale).spec,
        point.policy,
        seed=point.seed,
        shards=shards,
        inline=inline_shards,
        cluster_engine=cluster_engine,
    )


def _execute_point_worker(
    point_data: Dict[str, Any],
    shards: "int | str | None" = None,
    cluster_engine: Optional[str] = None,
) -> Dict[str, Any]:
    """Process-pool worker: run one point, return its serialized result."""
    point = ExperimentPoint.from_dict(point_data)
    return execute_point(
        point,
        shards=shards,
        inline_shards=True,
        cluster_engine=cluster_engine,
    ).to_dict()


def _one_attempt_failure(point: ExperimentPoint, exc: Exception) -> str:
    """The failure description of a point that raised on its one try,
    worded like a remote dead letter's summary."""
    return f"{point} after 1 attempt(s): {type(exc).__name__}: {exc}"


class ExecutionBackend(ABC):
    """Runs experiment points and reports results in input order."""

    #: Registry name ("serial", "process").
    name: str = "abstract"

    @abstractmethod
    def run(
        self,
        points: Sequence[ExperimentPoint],
        *,
        on_result: Optional[ResultCallback] = None,
        on_failure: Optional[FailureCallback] = None,
    ) -> List[Optional[ScenarioResult]]:
        """Execute *points*, returning one result per point, in order.

        *on_result* is called from the coordinating process as each
        point completes (completion order, not input order) — backends
        use it for progress reporting and incremental persistence.

        *on_failure* is called for each point the backend gives up on,
        and that point's slot in the returned list is ``None``.  The
        remote backend gives up once a point exhausts its retry budget;
        the serial and process backends try each point once and give up
        on a point that raises a :class:`~repro.errors.ReproError` (a
        bad policy, say).  Without *on_failure* such a point raises
        instead, and any other exception always propagates.
        """


class SerialBackend(ExecutionBackend):
    """Run every point in the current process, sequentially.

    With *shards* set, cluster points run through the sharded runner
    (real worker processes) — one way to parallelize a sweep whose
    points are few but individually large.
    """

    name = "serial"

    def __init__(
        self,
        shards: "int | str | None" = None,
        cluster_engine: Optional[str] = None,
    ) -> None:
        self.shards = shards
        self.cluster_engine = cluster_engine

    def run(
        self,
        points: Sequence[ExperimentPoint],
        *,
        on_result: Optional[ResultCallback] = None,
        on_failure: Optional[FailureCallback] = None,
    ) -> List[Optional[ScenarioResult]]:
        results: List[Optional[ScenarioResult]] = []
        for point in points:
            try:
                result = execute_point(
                    point, shards=self.shards,
                    cluster_engine=self.cluster_engine,
                )
            except ReproError as exc:
                if on_failure is None:
                    raise
                on_failure(point, _one_attempt_failure(point, exc))
                results.append(None)
                continue
            if on_result is not None:
                on_result(point, result)
            results.append(result)
        return results


class ProcessPoolBackend(ExecutionBackend):
    """Run points in parallel across ``max_workers`` worker processes."""

    name = "process"

    def __init__(
        self,
        max_workers: Optional[int] = None,
        shards: "int | str | None" = None,
        cluster_engine: Optional[str] = None,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ExperimentError(
                f"max_workers must be >= 1, got {max_workers}"
            )
        self.max_workers = max_workers or os.cpu_count() or 1
        # Pool workers shard inline (no nested process spawns); the
        # fingerprints are identical either way.
        self.shards = shards
        self.cluster_engine = cluster_engine

    def run(
        self,
        points: Sequence[ExperimentPoint],
        *,
        on_result: Optional[ResultCallback] = None,
        on_failure: Optional[FailureCallback] = None,
    ) -> List[Optional[ScenarioResult]]:
        if not points:
            return []
        results: List[Optional[ScenarioResult]] = [None] * len(points)
        workers = min(self.max_workers, len(points))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(
                    _execute_point_worker,
                    point.to_dict(),
                    self.shards,
                    self.cluster_engine,
                ): index
                for index, point in enumerate(points)
            }
            failed = set()
            for future in as_completed(futures):
                index = futures[future]
                try:
                    # Re-raises any worker-side exception with its
                    # traceback.
                    data = future.result()
                except ReproError as exc:
                    if on_failure is None:
                        raise
                    on_failure(points[index], _one_attempt_failure(points[index], exc))
                    failed.add(index)
                    continue
                result = ScenarioResult.from_dict(data)
                results[index] = result
                if on_result is not None:
                    on_result(points[index], result)
        missing = [
            points[i] for i, r in enumerate(results)
            if r is None and i not in failed
        ]
        if missing:  # pragma: no cover - as_completed covers every future
            raise ExperimentError(f"backend produced no result for {missing}")
        return results


class RemoteBackend(ExecutionBackend):
    """Run points through the lease-based HTTP job queue.

    ``run`` hosts a :class:`~repro.experiments.service.SweepServer` on a
    loopback ephemeral port and drives ``num_workers`` in-process worker
    threads against it over real HTTP — the same client/server code
    ``smartmem serve`` / ``smartmem worker`` run across machines, so
    ``run_sweep(..., backend=RemoteBackend())`` is the transport-layer
    counterpart of a genuinely distributed sweep.

    Robustness knobs:

    * leases expire after ``lease_expiry_s`` without a heartbeat and the
      point is reassigned;
    * each point gets ``max_attempts`` tries with exponential backoff
      (+ jitter) between them, then dead-letters;
    * worker threads that die (e.g. a chaos
      :class:`~repro.experiments.chaos.WorkerCrash`) are replaced, up to
      ``max_worker_restarts`` times;
    * ``chaos`` (a :class:`~repro.experiments.chaos.ChaosConfig`) wraps
      every worker's transport in deterministic request drop/duplication.
    """

    name = "remote"

    def __init__(
        self,
        num_workers: int = 2,
        *,
        lease_expiry_s: float = 10.0,
        max_attempts: int = 5,
        backoff_base_s: float = 0.05,
        backoff_cap_s: float = 1.0,
        heartbeat_interval_s: Optional[float] = None,
        request_timeout_s: float = 10.0,
        max_worker_restarts: int = 20,
        chaos: Optional[Any] = None,
        executor: Optional[Callable[[ExperimentPoint], ScenarioResult]] = None,
        host: str = "127.0.0.1",
        seed: int = 0,
    ) -> None:
        if num_workers < 1:
            raise ExperimentError(f"num_workers must be >= 1, got {num_workers}")
        self.num_workers = num_workers
        self.lease_expiry_s = lease_expiry_s
        self.max_attempts = max_attempts
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.heartbeat_interval_s = (
            heartbeat_interval_s
            if heartbeat_interval_s is not None
            else max(lease_expiry_s / 3.0, 0.05)
        )
        self.request_timeout_s = request_timeout_s
        self.max_worker_restarts = max_worker_restarts
        self.chaos = chaos
        self.executor = executor
        self.host = host
        self.seed = seed

    def _spawn_worker(self, url: str, worker_id: str, index: int) -> threading.Thread:
        from .chaos import ChaosTransport
        from .worker import HttpTransport, SweepClient, Worker

        transport: Any = HttpTransport(url, timeout_s=self.request_timeout_s)
        if self.chaos is not None:
            # Distinct per-worker fault streams, reproducible per run.
            config = type(self.chaos)(
                seed=self.chaos.seed + 1009 * index,
                drop_request=self.chaos.drop_request,
                drop_response=self.chaos.drop_response,
                duplicate=self.chaos.duplicate,
            )
            transport = ChaosTransport(transport, config)
        client = SweepClient(
            transport, worker_id, seed=self.seed + 31 * index
        )
        worker = Worker(
            client,
            executor=self.executor,
            heartbeat_interval_s=self.heartbeat_interval_s,
        )

        def run() -> None:
            try:
                worker.run()
            except BaseException:
                # Worker churn (chaos crash or a genuinely wedged
                # client): the supervisor loop in run() notices the dead
                # thread and decides whether to replace it.
                pass

        thread = threading.Thread(target=run, name=worker_id, daemon=True)
        thread.start()
        return thread

    def run(
        self,
        points: Sequence[ExperimentPoint],
        *,
        on_result: Optional[ResultCallback] = None,
        on_failure: Optional[FailureCallback] = None,
    ) -> List[Optional[ScenarioResult]]:
        from .leases import LeaseQueue
        from .service import SweepServer

        if not points:
            return []
        queue = LeaseQueue(
            list(points),
            lease_expiry_s=self.lease_expiry_s,
            max_attempts=self.max_attempts,
            backoff_base_s=self.backoff_base_s,
            backoff_cap_s=self.backoff_cap_s,
            seed=self.seed,
        )
        collected: Dict[str, ScenarioResult] = {}
        lock = threading.Lock()

        def recorded(point: ExperimentPoint, result: ScenarioResult) -> None:
            with lock:
                collected[point.point_id] = result
            if on_result is not None:
                on_result(point, result)

        server = SweepServer(queue, host=self.host, on_result=recorded)
        server.start()
        spawned = 0
        try:
            threads: List[threading.Thread] = []
            for index in range(min(self.num_workers, len(points))):
                spawned += 1
                threads.append(
                    self._spawn_worker(server.url, f"worker-{index}", spawned)
                )
            restarts = 0
            while not server.is_settled:
                server.tick()
                alive = [t for t in threads if t.is_alive()]
                dead = len(threads) - len(alive)
                threads = alive
                for _ in range(dead):
                    if restarts >= self.max_worker_restarts:
                        continue
                    restarts += 1
                    spawned += 1
                    threads.append(
                        self._spawn_worker(
                            server.url, f"worker-r{restarts}", spawned
                        )
                    )
                if not threads:
                    raise ExperimentError(
                        "remote backend ran out of workers "
                        f"(restart budget {self.max_worker_restarts} spent) "
                        f"with unresolved points: {queue.counts()}"
                    )
                time.sleep(0.02)
            # Let workers observe the settled state and exit cleanly.
            for thread in threads:
                thread.join(timeout=2.0)
        finally:
            server.stop()

        dead_letters = {
            letter.point.point_id: letter for letter in queue.dead_letters()
        }
        if dead_letters and on_failure is None:
            summaries = "; ".join(
                letter.summary() for letter in dead_letters.values()
            )
            raise ExperimentError(
                f"{len(dead_letters)} point(s) permanently failed: {summaries}"
            )
        results: List[Optional[ScenarioResult]] = []
        for point in points:
            result = collected.get(point.point_id)
            if result is None:
                letter = dead_letters.get(point.point_id)
                if letter is None:  # pragma: no cover - settled means done|dead
                    raise ExperimentError(f"no outcome for {point}")
                on_failure(point, letter.summary())  # type: ignore[misc]
            results.append(result)
        return results


_BACKENDS = {
    "serial": SerialBackend,
    "process": ProcessPoolBackend,
    "remote": RemoteBackend,
}


def available_backends() -> Sequence[str]:
    """Names of the execution backends the CLI can select."""
    return tuple(sorted(_BACKENDS))


def create_backend(
    name: str,
    *,
    max_workers: Optional[int] = None,
    **options: Any,
) -> ExecutionBackend:
    """Instantiate a backend by name (``serial``, ``process``, ``remote``).

    ``max_workers`` maps to the process pool size or (for ``remote``)
    the number of local worker threads; other keyword *options* are
    passed through to the backend constructor (``remote`` accepts e.g.
    ``lease_expiry_s``, ``max_attempts``, ``chaos``; ``serial`` and
    ``process`` accept ``shards`` and ``cluster_engine`` for sharded
    cluster execution).
    """
    try:
        cls = _BACKENDS[name]
    except KeyError:
        raise ExperimentError(
            f"unknown backend {name!r}; available: {', '.join(available_backends())}"
        ) from None
    if cls is ProcessPoolBackend:
        return cls(max_workers=max_workers, **options)
    if cls is RemoteBackend:
        if max_workers is not None:
            options.setdefault("num_workers", max_workers)
        return cls(**options)
    if cls is SerialBackend:
        unknown = set(options) - {"shards", "cluster_engine"}
        if unknown:
            raise ExperimentError(
                f"backend {name!r} only takes the 'shards' and "
                f"'cluster_engine' options, got {sorted(unknown)}"
            )
        return cls(**options)
    if options:  # pragma: no cover - every registered backend is handled
        raise ExperimentError(
            f"backend {name!r} takes no options, got {sorted(options)}"
        )
    return cls()
