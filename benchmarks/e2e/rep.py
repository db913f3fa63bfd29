"""One benchmark repetition, run by ``run.py`` in a fresh interpreter.

Usage: ``python benchmarks/e2e/rep.py '<job JSON>'``.  The job names the
scenario, scale, policy, execution path, seed and guest engine (see
``Run.job`` in ``run.py``).  The last line on standard output is a JSON
object with the repetition's measurements, or ``{"error": ...}`` with exit
code 1.

Set-up time starts at this module's first statement, before ``repro`` is
imported, and ends once the runner is built.  It is calibrated like the
run: ``setup_s`` is that time on a core whose calibration loop takes
:data:`CALIB_REFERENCE_S`.  Shard workers are spawned inside ``run()``, so
their start-up counts as run time.  Spawned workers re-import this file as
their main module, hence the ``__main__`` guard.

``cpu_s`` is the user and system time ``run()`` costs this process and
its shard workers.  A job with ``one_core`` confines this process, and so
the workers it spawns, to the core it starts on.

Linux only: the speed probe uses ``SIGALRM`` and CPU affinity, and peak
RSS is read in KiB.
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from array import array  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

#: The calibration loop is CALIB_SLICES slices of CALIB_SLICE_ITERATIONS
#: iterations: about 0.1 s of work on a 2-core x86-64 VM.
CALIB_SLICE_ITERATIONS = 500
CALIB_SLICES = 400
#: Words in the table the loop reads at random: 4 MB, twice a core's L2
#: cache, as the simulator's page maps are.
CALIB_TABLE_WORDS = 1 << 19
#: Seconds between two slices timed during set-up and run(); the slices
#: cost about 1%.
PROBE_PERIOD_S = 0.02
#: Calibration time of the reference core ``setup_s`` is scaled to: about
#: the loop's time on a 2-core x86-64 VM.
CALIB_REFERENCE_S = 0.1


class SpeedProbe:
    """Times calibration slices while set-up or ``run()`` executes.

    On a shared VM each core's speed swings by up to 1.8x for a second or
    more at a time, independently of the other cores, so a calibration
    timed before ``run()`` predicts little about the run itself.  Instead a
    ``SIGALRM`` every :data:`PROBE_PERIOD_S` times one slice in between
    the simulator's bytecodes, on the core the simulation is using.
    ``calib_s`` is the mean of the fastest nine tenths of the slices of the
    last ``with probe.sampling(...)`` block, scaled to the whole loop.  For
    sharded runs this process mostly waits on its workers, so the slices
    rotate over every core the workers can use.
    """

    def __init__(self) -> None:
        self.cores = []
        self.samples = []
        # Written, not just allocated, so every page is private and resident.
        self._table = array("q", [1]) * CALIB_TABLE_WORDS
        self._state = 12345

    def sampling(self, sharded: bool) -> "SpeedProbe":
        """Start a fresh set of slices, on every allowed core if *sharded*."""
        self.cores = sorted(os.sched_getaffinity(0)) if sharded else []
        self.samples = []
        return self

    def calib_slice(self) -> float:
        """Time one slice of the calibration loop.

        Each iteration does what the simulator's hot path does in pure
        Python: integer arithmetic, a read at a pseudo-random offset of a
        table bigger than the core's cache, and a dict store.  Memory
        contention from other tenants slows the simulator as well as the
        interpreter, so the loop has to feel both.
        """
        start = time.perf_counter()
        table, x, scratch, acc = self._table, self._state, {}, 0
        mask = CALIB_TABLE_WORDS - 1
        for _ in range(CALIB_SLICE_ITERATIONS):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            acc += table[x & mask]
            scratch[x & 1023] = acc
        self._state = x
        return time.perf_counter() - start

    def _tick(self, signum, frame) -> None:
        if self.cores:
            # Restored before returning, so workers spawned later are
            # never pinned.
            os.sched_setaffinity(0, {self.cores[len(self.samples) % len(self.cores)]})
            self.samples.append(self.calib_slice())
            os.sched_setaffinity(0, self.cores)
        else:
            self.samples.append(self.calib_slice())

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # a run shorter than one period
            self.samples.append(self.calib_slice())

    @property
    def calib_s(self) -> float:
        # The slowest tenth is dropped: a slice that was pre-empted (by a
        # shard worker taking its core back, or an interrupt) measures the
        # wait, not the core's speed.
        kept = sorted(self.samples)[: len(self.samples) - len(self.samples) // 10]
        return CALIB_SLICES * statistics.fmean(kept)


def build(job: dict):
    """The scenario runner *job* describes, ready to ``run()``."""
    from dataclasses import replace

    from repro.config import GuestConfig, SimulationConfig
    from repro.scenarios.library import scenario_by_name
    from repro.units import SCENARIO_UNITS

    spec = scenario_by_name(job["scenario"], scale=job["scale"])
    if job.get("tmem_mb") is not None:
        spec = replace(spec, tmem_mb=job["tmem_mb"])
    config = SimulationConfig(
        units=SCENARIO_UNITS,
        guest=GuestConfig(access_engine=job.get("access_engine", "batched")),
    )
    if job.get("shards") is None:
        from repro.scenarios.runner import ScenarioRunner

        return ScenarioRunner(spec, job["policy"], config=config, seed=job["seed"])
    from repro.cluster.sharded import ShardedClusterRunner

    return ShardedClusterRunner(
        spec,
        job["policy"],
        shards=job["shards"],
        config=config,
        seed=job["seed"],
        cluster_engine=job.get("cluster_engine") or "exact",
    )


def pages_accessed(runner) -> int:
    if hasattr(runner, "pages_accessed"):
        return runner.pages_accessed
    return sum(vm.kernel.stats.accesses for vm in runner.vms.values())


def stop_resource_tracker() -> None:
    """Stop and reap the helper process ``spawn`` starts alongside workers.

    Without this it outlives the shard workers until this process exits,
    unwaited.  ``_stop`` is private but present from Python 3.8 on.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def pin_to_current_core() -> None:
    """Confine this process, and the shard workers it spawns, to its core.

    Field 39 of ``/proc/self/stat`` (proc(5)) is the core it last ran on.
    """
    fields = Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()
    os.sched_setaffinity(0, {int(fields[36])})


def cpu_seconds() -> float:
    """User and system time of this process and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped descendant."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def measure(job: dict) -> dict:
    if job.get("one_core"):
        pin_to_current_core()
    probe = SpeedProbe()
    tracer = None
    # Set-up runs before any shard worker exists, on this process's core.
    with probe.sampling(sharded=False):
        if job.get("trace"):
            from layers import Tracer

            tracer = Tracer().install()
        runner = build(job)
        setup_wall_s = time.perf_counter() - _T0
    setup_calib_s = probe.calib_s
    if tracer is not None:
        tracer.reset()
    with probe.sampling(sharded=job.get("shards") is not None):
        start, cpu_start = time.perf_counter(), cpu_seconds()
        result = runner.run()
        wall_s = time.perf_counter() - start
        # run() joins its shard workers, so their time is counted here.
        cpu_s = cpu_seconds() - cpu_start
    stop_resource_tracker()

    puts_total = sum(vm.cumul_puts_total for vm in result.vms.values())
    puts_succ = sum(vm.cumul_puts_succ for vm in result.vms.values())
    rep = {
        "setup_s": setup_wall_s * CALIB_REFERENCE_S / setup_calib_s,
        "setup_wall_s": setup_wall_s,
        "setup_calib_s": setup_calib_s,
        "calib_s": probe.calib_s,
        "calib_slices": len(probe.samples),
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "pages": pages_accessed(runner),
        "peak_rss_mb": peak_rss_mb(),
        "put_success": puts_succ / puts_total if puts_total else 0.0,
        "fingerprint": result.fingerprint(),
        "aggregate_fingerprint": result.aggregate_fingerprint(),
    }
    if tracer is not None:
        rep["layers"] = tracer.summary()
        if job.get("spans"):
            tracer.dump(job["spans"])
    return rep


def main(argv) -> int:
    try:
        rep = measure(json.loads(argv[1]))
    except Exception as exc:  # reported to run.py, which counts the failure
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}))
        return 1
    print(json.dumps(rep))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
