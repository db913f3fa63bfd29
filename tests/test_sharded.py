"""Sharded cluster execution (PR 7): fingerprint identity and safety rails.

The contract of :class:`repro.cluster.sharded.ShardedClusterRunner` is
that ``run().fingerprint()`` equals the shared-engine run's fingerprint
for *every* topology: decoupled ones genuinely run one engine per node
group, coupled ones (spill, coordinator, contention, failures,
migrations, cross-node triggers) take the exact single-engine fallback.
The property tests here randomize topology shape, seed, policy and
shard count over the decoupled ``shard`` family; dedicated tests cover
the coupled fallback, the real process path (forked or spawned
workers, and the pipe ends a forked worker inherits), and the clear
:class:`ClusterError` raised for runs a worker could not rebuild.
"""

from __future__ import annotations

import ast
import dataclasses
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.cluster.sharded import (
    RunPath,
    ShardedClusterRunner,
    _ProcessShard,
    _chunk,
    coupling_reason,
    resolve_shards,
)
from repro.core.policies.greedy import GreedyPolicy
from repro.core.policy import POLICIES as POLICY_REGISTRY, register_policy
from repro.errors import ClusterError, SimulationError
from repro.scenarios.registry import registered_scenarios, scenario_by_name
from repro.scenarios.runner import run_scenario
from repro.scenarios.spec import PhaseTrigger
from repro.workloads.registry import WORKLOAD_REGISTRY, register_workload_kind
from repro.workloads.usemem import UsememWorkload

SCALE = 0.05
POLICIES = ["no-tmem", "greedy", "smart-alloc:P=2"]


# ---------------------------------------------------------------------------
# coupling analysis
# ---------------------------------------------------------------------------
class TestCouplingReason:
    def test_shard_family_is_decoupled(self):
        spec = scenario_by_name("shard:nodes=3", scale=SCALE)
        assert coupling_reason(spec) is None

    def test_single_host_scenario(self):
        spec = scenario_by_name("usemem-scenario", scale=SCALE)
        assert "single-host" in coupling_reason(spec)

    def test_single_node_topology(self):
        spec = scenario_by_name("shard:nodes=1", scale=SCALE)
        assert "single-node" in coupling_reason(spec)

    def test_remote_spill_couples_only_with_tmem(self):
        spec = scenario_by_name("cluster:nodes=3", scale=SCALE)
        assert "spill" in coupling_reason(spec, use_tmem=True)
        # Without tmem there are no puts, hence nothing to spill: the
        # no-tmem policy decouples even a spill-enabled topology.
        assert coupling_reason(spec, use_tmem=False) is None

    def test_coordinator_couples(self):
        spec = scenario_by_name("hotnode:nodes=3", scale=SCALE)
        reason = coupling_reason(spec)
        assert "spill" in reason or "coordinator" in reason

    def test_contended_couples_even_without_tmem(self):
        spec = scenario_by_name("contended:nodes=3", scale=SCALE)
        assert "contended" in coupling_reason(spec, use_tmem=False)

    def test_failures_and_migrations_couple(self):
        from repro.scenarios.spec import NodeFailure, VmMigration

        spec = scenario_by_name("shard:nodes=2", scale=SCALE)
        failing = dataclasses.replace(
            spec,
            topology=dataclasses.replace(
                spec.topology, failures=(NodeFailure(node="node2", at_s=5.0),)
            ),
        )
        assert "fail" in coupling_reason(failing, use_tmem=False)
        migrating = dataclasses.replace(
            spec,
            topology=dataclasses.replace(
                spec.topology,
                migrations=(
                    VmMigration(vm="n1.VM1", to_node="node2", at_s=5.0),
                ),
            ),
        )
        assert "migration" in coupling_reason(migrating, use_tmem=False)
        # The coupled families themselves are caught too (their reason
        # may be an earlier check, e.g. the contended interconnect).
        assert coupling_reason(scenario_by_name("failover", scale=SCALE))
        assert coupling_reason(scenario_by_name("migrate", scale=SCALE))

    def test_cross_node_phase_trigger_couples(self):
        spec = scenario_by_name("shard:nodes=2,vms_per_node=1", scale=SCALE)
        trigger = PhaseTrigger(
            watch_vm="n1.VM1", phase_prefix="touch", start_vm="n2.VM1"
        )
        coupled = dataclasses.replace(spec, phase_triggers=(trigger,))
        assert "crosses nodes" in coupling_reason(coupled)
        # Same-node triggers stay decoupled.
        same_node = dataclasses.replace(
            scenario_by_name("shard:nodes=2", scale=SCALE),
            phase_triggers=(
                PhaseTrigger(
                    watch_vm="n1.VM1", phase_prefix="touch",
                    start_vm="n1.VM2",
                ),
            ),
        )
        assert coupling_reason(same_node) is None

    def test_stop_trigger_couples(self):
        spec = scenario_by_name("shard:nodes=2", scale=SCALE)
        stopper = PhaseTrigger(watch_vm="n1.VM1", phase_prefix="touch")
        coupled = dataclasses.replace(spec, stop_trigger=stopper)
        assert "stop trigger" in coupling_reason(coupled)


class TestResolveShards:
    def test_none_means_one(self):
        assert resolve_shards(None, 4) == 1

    def test_auto_caps_at_groups_and_cpus(self):
        import os

        count = resolve_shards("auto", 4)
        assert 1 <= count <= min(4, os.cpu_count() or 1)
        assert resolve_shards("auto", 1) == 1

    def test_integers_and_strings(self):
        assert resolve_shards(2, 4) == 2
        assert resolve_shards("3", 4) == 3  # CLI passes strings through
        assert resolve_shards(8, 3) == 3  # capped at the group count

    @pytest.mark.parametrize("bad", [0, -1, "0", "banana"])
    def test_invalid_values(self, bad):
        with pytest.raises(ClusterError):
            resolve_shards(bad, 4)


class TestChunk:
    def test_even_split(self):
        groups = [("a",), ("b",), ("c",), ("d",)]
        assert _chunk(groups, 2) == [("a", "b"), ("c", "d")]

    def test_uneven_split_keeps_every_name_once(self):
        groups = [(f"n{i}",) for i in range(5)]
        chunks = _chunk(groups, 3)
        assert len(chunks) == 3
        assert all(chunks)
        flat = [name for chunk in chunks for name in chunk]
        assert flat == [f"n{i}" for i in range(5)]

    def test_more_buckets_than_groups(self):
        chunks = _chunk([("a",), ("b",)], 5)
        assert chunks == [("a",), ("b",)]


# ---------------------------------------------------------------------------
# the recorded path
# ---------------------------------------------------------------------------
class TestRunPath:
    @pytest.mark.parametrize("family", sorted(registered_scenarios()))
    def test_without_shards_every_family_runs_the_shared_engine(self, family):
        """run_scenario without shards stays the shared engine the
        sharded-equivalence tests compare against."""
        spec = scenario_by_name(family, scale=SCALE)
        runner = ShardedClusterRunner(spec, "greedy", shards=None)
        assert runner.path.engine == "shared"
        assert runner.path.shards == 0
        assert runner.path.epoch_fallback is None

    def test_epoch_fallback_is_recorded_only_when_epoch_is_asked_for(self):
        spec = scenario_by_name("failover", scale=SCALE)
        exact = ShardedClusterRunner(spec, "greedy", shards=2)
        epoch = ShardedClusterRunner(
            spec, "greedy", shards=2, cluster_engine="epoch"
        )
        assert exact.path.epoch_fallback is None
        assert epoch.path.epoch_fallback == (
            "node failures relocate VMs across shards"
        )
        assert epoch.path.engine == "shared"

    @pytest.mark.parametrize("path,text", [
        (RunPath("shards", 2, None), "2 shard workers"),
        (RunPath("epoch", 2, "remote-tmem spill couples the nodes"),
         "2 epoch shard workers: remote-tmem spill couples the nodes"),
        (RunPath("epoch", 1, "remote-tmem spill couples the nodes"),
         "1 epoch shard in this process: remote-tmem spill couples the nodes"),
        (RunPath("shared", 0, "remote-tmem spill couples the nodes",
                 "fault plan needs the exact cluster engine"),
         "shared engine in this process: fault plan needs the exact cluster "
         "engine"),
    ])
    def test_str_names_the_path(self, path, text):
        """The phrases the CLI tests do not print: decoupled shard
        workers, and an epoch fallback, which names why epoch did not run."""
        assert str(path) == text


# ---------------------------------------------------------------------------
# fingerprint identity (the core guarantee)
# ---------------------------------------------------------------------------
class TestShardedIdentity:
    @settings(deadline=None, max_examples=6)
    @given(
        nodes=st.integers(2, 3),
        vms_per_node=st.integers(1, 2),
        seed=st.integers(0, 2**31 - 1),
        shards=st.integers(1, 4),
        policy=st.sampled_from(POLICIES),
    )
    def test_decoupled_matches_shared_engine(
        self, nodes, vms_per_node, seed, shards, policy
    ):
        spec = scenario_by_name(
            f"shard:nodes={nodes},vms_per_node={vms_per_node}", scale=SCALE
        )
        shared = run_scenario(spec, policy, seed=seed)
        sharded = run_scenario(
            spec, policy, shards=shards, seed=seed, inline=True
        )
        assert sharded.fingerprint() == shared.fingerprint()

    @settings(deadline=None, max_examples=4)
    @given(
        scenario=st.sampled_from(
            ["failover", "migrate", "cluster:nodes=2", "contended:nodes=2"]
        ),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_coupled_fallback_matches_shared_engine(self, scenario, seed):
        """Coupled families (mid-run failures, migrations, spill,
        contention) stay bit-identical through the exact fallback."""
        spec = scenario_by_name(scenario, scale=SCALE)
        runner = ShardedClusterRunner(
            spec, "greedy", shards=4, seed=seed, inline=True
        )
        assert runner.path.engine == "shared"
        assert runner.path.coupling_reason is not None
        shared = run_scenario(spec, "greedy", seed=seed)
        assert runner.run().fingerprint() == shared.fingerprint()

    def test_no_tmem_decouples_a_spill_topology(self):
        spec = scenario_by_name("cluster:nodes=2", scale=SCALE)
        runner = ShardedClusterRunner(
            spec, "no-tmem", shards=2, seed=11, inline=True
        )
        assert runner.path.engine != "shared"
        shared = run_scenario(spec, "no-tmem", seed=11)
        assert runner.run().fingerprint() == shared.fingerprint()

    @pytest.mark.parametrize("policy", POLICIES)
    def test_a_node_without_jobs_matches_shared_engine(self, policy):
        """A shard whose VMs have no jobs is idle from the start: it stops
        at once instead of running its engine on to the deadline."""
        spec = scenario_by_name("shard:nodes=2", scale=SCALE)
        idle = spec.topology.nodes[1].vm_names
        spec = dataclasses.replace(spec, vms=tuple(
            dataclasses.replace(vm, jobs=()) if vm.name in idle else vm
            for vm in spec.vms
        ))
        shared = run_scenario(spec, policy, seed=7)
        sharded = run_scenario(spec, policy, shards=2, seed=7, inline=True)
        assert sharded.fingerprint() == shared.fingerprint()

    def test_counters_match_shared_engine(self):
        """events_executed / pages_accessed sum to the shared run's."""
        from repro.scenarios.runner import ScenarioRunner

        spec = scenario_by_name("shard:nodes=2", scale=SCALE)
        shared_runner = ScenarioRunner(spec, "greedy", seed=3)
        shared_runner.run()
        sharded = ShardedClusterRunner(
            spec, "greedy", shards=2, seed=3, inline=True
        )
        sharded.run()
        pages = sum(
            vm.kernel.stats.accesses for vm in shared_runner.vms.values()
        )
        assert sharded.pages_accessed == pages
        assert sharded.events_executed > 0

    def test_process_mode_matches_shared_engine(self):
        """The real worker-process path (2 workers) is bit-identical too."""
        spec = scenario_by_name("shard:nodes=2,vms_per_node=1", scale=SCALE)
        shared = run_scenario(spec, "greedy", seed=5)
        runner = ShardedClusterRunner(spec, "greedy", shards=2, seed=5)
        assert runner.path.engine != "shared"
        assert len(runner.buckets) == 2
        assert runner.run().fingerprint() == shared.fingerprint()

    def test_process_mode_exact_fallback(self):
        """A coupled scenario with worker processes requested runs the
        exact shared engine in this process."""
        spec = scenario_by_name("failover", scale=SCALE)
        shared = run_scenario(spec, "greedy", seed=5)
        runner = ShardedClusterRunner(spec, "greedy", shards=2, seed=5)
        assert runner.path.engine == "shared"
        assert runner.run().fingerprint() == shared.fingerprint()


# ---------------------------------------------------------------------------
# deadline handling
# ---------------------------------------------------------------------------
class TestDeadline:
    @pytest.mark.parametrize("inline", [True, False])
    @pytest.mark.parametrize(
        "scenario",
        [
            "shard:nodes=2",  # decoupled: the one-window stop driver
            "failover",  # coupled: the exact path in this process
        ],
    )
    def test_deadline_miss_matches_shared_message(self, scenario, inline):
        spec = dataclasses.replace(
            scenario_by_name(scenario, scale=SCALE), max_duration_s=0.25
        )
        with pytest.raises(SimulationError) as shared_err:
            run_scenario(spec, "greedy", seed=1)
        with pytest.raises(SimulationError) as sharded_err:
            run_scenario(
                spec, "greedy", shards=2, seed=1, inline=inline
            )
        assert str(sharded_err.value) == str(shared_err.value)
        assert not multiprocessing.active_children()

    @pytest.mark.parametrize("inline", [True, False])
    def test_epoch_deadline_miss_names_vms(self, inline):
        spec = dataclasses.replace(
            scenario_by_name("contended:nodes=2", scale=SCALE),
            max_duration_s=0.25,
        )
        with pytest.raises(SimulationError) as err:
            run_scenario(
                spec, "greedy", shards=2, seed=1, inline=inline,
                cluster_engine="epoch",
            )
        head, _, running = str(err.value).partition("; still running: ")
        assert head.endswith("did not finish within 0 simulated seconds")
        names = ast.literal_eval(running)
        assert names and set(names) <= {vm.name for vm in spec.vms}
        assert not multiprocessing.active_children()


# ---------------------------------------------------------------------------
# process transport
# ---------------------------------------------------------------------------
class TestProcessTransport:
    def test_dead_worker_is_a_cluster_error_on_send_and_recv(self):
        """A worker that dies between two steps surfaces as ClusterError
        whichever pipe operation meets it first."""
        spec = scenario_by_name("shard:nodes=2", scale=SCALE)
        runner = ShardedClusterRunner(spec, "greedy", shards=2, seed=1)
        shards = []
        try:
            for bucket in runner.buckets:
                shards.append(_ProcessShard(runner._payload(bucket)))
            for bucket, shard in zip(runner.buckets, shards):
                shard.send("begin")
                assert set(shard.recv()["nodes"]) == set(bucket)
                shard.process.kill()
                shard.process.join()
            with pytest.raises(ClusterError, match="exited without reporting"):
                shards[0].send("finish", 1.0)
            with pytest.raises(ClusterError, match="exited without reporting"):
                shards[1].recv()
        finally:
            for shard in shards:
                shard.close()
        assert not multiprocessing.active_children()

    def test_start_method_follows_the_callers_threads(self, monkeypatch):
        """A single-threaded caller forks its workers on Linux; while a
        second Python thread runs, it spawns them.  Both give the
        shared-engine fingerprint and leave no worker behind."""
        started = []
        init = _ProcessShard.__init__

        def spy(shard, payload):
            init(shard, payload)
            started.append(type(shard.process).__name__)

        monkeypatch.setattr(_ProcessShard, "__init__", spy)
        spec = scenario_by_name("shard:nodes=2", scale=SCALE)
        shared = run_scenario(spec, "greedy", seed=2).fingerprint()
        assert run_scenario(spec, "greedy", shards=2, seed=2).fingerprint() == shared
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            threaded = run_scenario(spec, "greedy", shards=2, seed=2)
        finally:
            release.set()
            thread.join(5)
        assert not thread.is_alive()
        assert threaded.fingerprint() == shared
        alone = "ForkProcess" if sys.platform == "linux" else "SpawnProcess"
        assert started == [alone] * 2 + ["SpawnProcess"] * 2
        assert not multiprocessing.active_children()

    def test_worker_exits_once_its_parent_end_closes(self):
        """No worker keeps a copy of a parent pipe end: closing shard 0's
        end stops worker 0 while shard 1 is still open."""
        spec = scenario_by_name("shard:nodes=2", scale=SCALE)
        runner = ShardedClusterRunner(spec, "greedy", shards=2, seed=1)
        shards = []
        try:
            for bucket in runner.buckets:
                shards.append(_ProcessShard(runner._payload(bucket)))
            for shard in shards:
                shard.send("begin")
            for shard in shards:
                shard.recv()
            shards[0].conn.close()
            shards[0].process.join(5)
            assert shards[0].process.exitcode is not None
            assert shards[1].process.is_alive()
        finally:
            for shard in shards:
                shard.close()
        assert not multiprocessing.active_children()

    @pytest.mark.skipif(sys.platform != "linux", reason="reads /proc")
    def test_workers_exit_when_the_parent_is_killed(self, tmp_path):
        """A parent SIGKILLed after ``begin`` leaves no worker asleep in
        ``recv``: its death closes the only copies of the parent ends."""
        pids = tmp_path / "pids"
        code = textwrap.dedent(f"""
            import os, signal
            from pathlib import Path
            from repro.cluster.sharded import ShardedClusterRunner, _ProcessShard
            from repro.scenarios.registry import scenario_by_name
            spec = scenario_by_name("shard:nodes=2", scale={SCALE})
            runner = ShardedClusterRunner(spec, "greedy", shards=2, seed=1)
            shards = [_ProcessShard(runner._payload(b)) for b in runner.buckets]
            for shard in shards:
                shard.send("begin")
            for shard in shards:
                shard.recv()
            Path({str(pids)!r}).write_text(
                " ".join(str(shard.process.pid) for shard in shards))
            os.kill(os.getpid(), signal.SIGKILL)
        """)
        src = str(Path(repro.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        parent = subprocess.run(
            [sys.executable, "-c", code], env=env, timeout=60,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        assert parent.returncode == -signal.SIGKILL
        workers = [int(pid) for pid in pids.read_text().split()]
        assert len(workers) == 2

        def running(pid: int) -> bool:
            try:
                stat = Path(f"/proc/{pid}/stat").read_text()
            except FileNotFoundError:
                return False
            return stat.rsplit(")", 1)[1].split()[0] != "Z"

        deadline = time.monotonic() + 5.0
        while any(map(running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        survivors = [pid for pid in workers if running(pid)]
        for pid in survivors:
            os.kill(pid, signal.SIGKILL)
        assert not survivors


# ---------------------------------------------------------------------------
# worker-safety rails (clear errors instead of opaque remote tracebacks)
# ---------------------------------------------------------------------------
class TestShardableValidation:
    def test_custom_workload_kind_is_rejected_for_processes(self):
        class LocalWorkload(UsememWorkload):
            pass

        register_workload_kind("sharded-test-local", LocalWorkload)
        try:
            spec = scenario_by_name("shard:nodes=2", scale=SCALE)
            vms = tuple(
                dataclasses.replace(
                    vm,
                    jobs=tuple(
                        dataclasses.replace(job, kind="sharded-test-local")
                        for job in vm.jobs
                    ),
                )
                for vm in spec.vms
            )
            custom = dataclasses.replace(spec, vms=vms)
            runner = ShardedClusterRunner(custom, "greedy", shards=2, seed=1)
            with pytest.raises(ClusterError, match="custom workload kind"):
                runner.run()
        finally:
            WORKLOAD_REGISTRY.pop("sharded-test-local", None)

    def test_custom_policy_is_rejected_for_processes(self):
        """A forked worker would inherit a policy the caller registered and
        a spawned one would not, so process shards refuse it on every host."""
        class LocalPolicy(GreedyPolicy):
            pass

        register_policy("sharded-test-policy")(LocalPolicy)
        try:
            spec = scenario_by_name("shard:nodes=2", scale=SCALE)
            runner = ShardedClusterRunner(spec, "sharded-test-policy", shards=2, seed=1)
            with pytest.raises(ClusterError, match="custom policy"):
                runner.run()
            inline = ShardedClusterRunner(
                spec, "sharded-test-policy", shards=2, seed=1, inline=True
            )
            assert inline.run().vms
        finally:
            POLICY_REGISTRY.classes.pop("sharded-test-policy", None)
        assert not multiprocessing.active_children()

    def test_unknown_workload_kind_is_rejected(self):
        spec = scenario_by_name("shard:nodes=2", scale=SCALE)
        vms = tuple(
            dataclasses.replace(
                vm,
                jobs=tuple(
                    dataclasses.replace(job, kind="no-such-kind")
                    for job in vm.jobs
                ),
            )
            for vm in spec.vms
        )
        broken = dataclasses.replace(spec, vms=vms)
        runner = ShardedClusterRunner(broken, "greedy", shards=2, seed=1)
        with pytest.raises(ClusterError, match="not registered"):
            runner.run()

    def test_unpicklable_spec_is_rejected(self):
        spec = scenario_by_name("shard:nodes=2", scale=SCALE)
        first = spec.vms[0]
        poisoned_job = dataclasses.replace(
            first.jobs[0],
            params={**first.jobs[0].params, "hook": lambda: None},
        )
        vms = (
            dataclasses.replace(first, jobs=(poisoned_job,)),
        ) + spec.vms[1:]
        unpicklable = dataclasses.replace(spec, vms=vms)
        runner = ShardedClusterRunner(unpicklable, "greedy", shards=2, seed=1)
        with pytest.raises(ClusterError, match="not serializable"):
            runner.run()


def test_check_invariants_arms_the_checker_in_every_shard(monkeypatch):
    """The argument, not the environment, arms every shard's checker;
    each armed checker sweeps its shard's own nodes only, and none moves
    the fingerprint."""
    from repro.cluster.cluster import Cluster
    from repro.hypervisor.xen import Hypervisor

    monkeypatch.delenv("SMARTMEM_CHECK_INVARIANTS", raising=False)
    armed = []
    enable = Cluster.enable_invariant_checker

    def spy(cluster):
        armed.append(cluster)
        enable(cluster)

    monkeypatch.setattr(Cluster, "enable_invariant_checker", spy)
    checked_hypervisors = []
    check = Hypervisor.check_invariants

    def check_spy(hypervisor):
        checked_hypervisors.append(hypervisor)
        check(hypervisor)

    monkeypatch.setattr(Hypervisor, "check_invariants", check_spy)
    spec = scenario_by_name("shard:nodes=2", scale=SCALE)
    unchecked = ShardedClusterRunner(spec, "greedy", shards=2, inline=True).run()
    assert armed == []
    sharded = ShardedClusterRunner(
        spec, "greedy", shards=2, inline=True, check_invariants=True
    )
    checked_hypervisors.clear()
    checked = sharded.run()
    assert len(armed) == 2
    assert all(cluster.invariant_checker.checks_run > 0 for cluster in armed)
    # Shard k's replica checks the nodes of bucket k, never the others.
    seen = {id(hypervisor) for hypervisor in checked_hypervisors}
    for cluster, bucket in zip(armed, sharded.buckets):
        swept = {node.name for node in cluster.nodes if id(node.hypervisor) in seen}
        assert swept == set(bucket)
    armed.clear()
    exact = ShardedClusterRunner(spec, "greedy", shards=1, check_invariants=True)
    assert exact.path.engine == "shared"
    shared = exact.run()
    assert len(armed) == 1
    assert armed[0].invariant_checker.checks_run > 0
    assert checked.fingerprint() == unchecked.fingerprint() == shared.fingerprint()
    # Epoch shards never materialize the pages they host, so the spill
    # laws do not hold there: the checker stays unarmed.
    armed.clear()
    epoch = ShardedClusterRunner(
        scenario_by_name("contended:nodes=2", scale=SCALE), "greedy",
        shards=2, inline=True, cluster_engine="epoch", check_invariants=True,
    )
    assert epoch.path.engine == "epoch"
    epoch.run()
    assert len(armed) == 2
    assert all(cluster.invariant_checker is None for cluster in armed)
