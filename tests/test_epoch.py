"""Epoch cluster engine (PR 8): determinism and shard invariance.

The contract of ``cluster_engine="epoch"`` is weaker than the exact
sharded runner's (results are *not* bit-identical to the shared engine)
but strict on its own terms: for the same seed and topology the
``aggregate_fingerprint()`` must be identical regardless of the shard
count, the scheduling of the shard workers, and whether the shards run
inline or in real spawned processes.  The property tests here randomize
coupled topology shape, seed and policy and assert exactly that;
dedicated tests cover engine selection, the conservative window size,
the fallback reasons, and the driver-side coordinator bookkeeping.
"""

from __future__ import annotations

import dataclasses
import types

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.epoch import (
    CLUSTER_ENGINES,
    epoch_fallback_reason,
    epoch_window_s,
    resolve_cluster_engine,
)
from repro.cluster.sharded import (
    ShardedClusterRunner,
)
from repro.errors import ClusterError
from repro.scenarios.registry import scenario_by_name
from repro.scenarios.runner import run_scenario

SCALE = 0.05
SEED = 2019

#: Coupled families the epoch engine parallelizes (remote spill +
#: coordinator; hot-node imbalance; contended interconnect).
COUPLED = [
    "cluster:nodes={n},vms_per_node={v}",
    "hotnode:nodes={n}",
    "contended:nodes={n}",
]


def _epoch_run(spec, policy, *, shards, seed=SEED, inline=True):
    return run_scenario(
        spec,
        policy,
        shards=shards,
        seed=seed,
        inline=inline,
        cluster_engine="epoch",
    )


# ---------------------------------------------------------------------------
# engine selection
# ---------------------------------------------------------------------------
class TestEngineSelection:
    def test_resolve_defaults_to_exact(self):
        assert resolve_cluster_engine(None) == "exact"
        assert resolve_cluster_engine("exact") == "exact"
        assert resolve_cluster_engine("epoch") == "epoch"
        assert set(CLUSTER_ENGINES) == {"exact", "epoch"}

    @pytest.mark.parametrize("bad", ["Epoch", "relaxed", "", "auto"])
    def test_resolve_rejects_unknown(self, bad):
        with pytest.raises(ClusterError):
            resolve_cluster_engine(bad)

    def test_epoch_parallelizes_coupled_topology(self):
        spec = scenario_by_name("cluster:nodes=3", scale=SCALE)
        runner = ShardedClusterRunner(
            spec, "greedy", shards=2, inline=True, cluster_engine="epoch"
        )
        assert runner.path.engine == "epoch"
        assert len(runner.buckets) == 2

    def test_epoch_single_shard_still_runs_window_protocol(self):
        """The shard count must never change epoch results, so one shard
        runs the same window protocol as many."""
        spec = scenario_by_name("cluster:nodes=3", scale=SCALE)
        runner = ShardedClusterRunner(
            spec, "greedy", shards=1, inline=True, cluster_engine="epoch"
        )
        assert runner.path.engine == "epoch"

    def test_one_epoch_shard_runs_in_this_process(self, monkeypatch):
        """A single epoch shard never spawns a worker, whatever ``inline``
        says: its result is the in-process shard's."""
        from repro.cluster import sharded

        spec = scenario_by_name("contended:nodes=2", scale=SCALE)
        inline = _epoch_run(spec, "smart-alloc", shards=None)

        class NoSpawn:
            def __init__(self, payload):
                raise AssertionError("a one-shard epoch run spawned a worker")

        monkeypatch.setattr(sharded, "_ProcessShard", NoSpawn)
        runner = ShardedClusterRunner(
            spec, "smart-alloc", shards=None, seed=SEED, cluster_engine="epoch"
        )
        assert str(runner.path) == (
            "1 epoch shard in this process: remote-tmem spill couples the nodes"
        )
        result = runner.run()
        assert result.aggregate_fingerprint() == inline.aggregate_fingerprint()

    def test_decoupled_topology_keeps_bit_exact_path(self):
        """Decoupled nodes don't need windows; they keep the exact
        parallel path (and its bit-identity to the shared engine)."""
        spec = scenario_by_name("shard:nodes=2", scale=SCALE)
        runner = ShardedClusterRunner(
            spec, "greedy", shards=2, inline=True, cluster_engine="epoch"
        )
        assert runner.path.engine != "epoch"
        shared = run_scenario(spec, "greedy", seed=SEED)
        result = ShardedClusterRunner(
            spec, "greedy", shards=2, seed=SEED, inline=True,
            cluster_engine="epoch",
        ).run()
        assert result.fingerprint() == shared.fingerprint()

    def test_failures_fall_back_to_exact(self):
        spec = scenario_by_name("failover", scale=SCALE)
        assert "failures" in epoch_fallback_reason(spec)
        runner = ShardedClusterRunner(
            spec, "greedy", shards=2, seed=SEED, inline=True,
            cluster_engine="epoch",
        )
        assert runner.path.engine == "shared"
        shared = run_scenario(spec, "greedy", seed=SEED)
        assert runner.run().fingerprint() == shared.fingerprint()

    def test_migrations_and_stop_triggers_fall_back(self):
        from repro.scenarios.spec import PhaseTrigger

        migrate = scenario_by_name("migrate", scale=SCALE)
        assert "migration" in epoch_fallback_reason(migrate)
        spec = scenario_by_name("cluster:nodes=2", scale=SCALE)
        stopper = dataclasses.replace(
            spec,
            stop_trigger=PhaseTrigger(watch_vm="n1.VM1", phase_prefix="t"),
        )
        assert "stop trigger" in epoch_fallback_reason(stopper)

    def test_parallelizable_topologies_have_no_fallback_reason(self):
        for name in ("cluster:nodes=3", "hotnode:", "contended:"):
            spec = scenario_by_name(name, scale=SCALE)
            assert epoch_fallback_reason(spec) is None, name


# ---------------------------------------------------------------------------
# window size
# ---------------------------------------------------------------------------
class TestWindowSize:
    def test_window_from_latency_and_rebalance_interval(self):
        spec = scenario_by_name("cluster:nodes=3", scale=SCALE)
        window = epoch_window_s(spec.topology)
        assert window > 0
        latency = spec.topology.interconnect_latency_s
        interval = spec.topology.rebalance_interval_s
        assert window >= latency
        assert window >= interval / 2 or window == 1.0

    def test_window_floor_guards_degenerate_topologies(self):
        """ClusterTopology validates its intervals, so the floor can
        only trigger on hand-built topology-likes — but it must hold."""
        degenerate = types.SimpleNamespace(
            interconnect_latency_s=0.0, rebalance_interval_s=0.0
        )
        assert epoch_window_s(degenerate) == 1.0


# ---------------------------------------------------------------------------
# the determinism contract (the core guarantee)
# ---------------------------------------------------------------------------
class TestEpochInvariance:
    @settings(deadline=None, max_examples=5)
    @given(
        family=st.sampled_from(COUPLED),
        nodes=st.integers(2, 4),
        vms=st.integers(1, 2),
        seed=st.integers(0, 2**31 - 1),
        policy=st.sampled_from(["greedy", "smart-alloc:P=2"]),
    )
    def test_fingerprint_invariant_across_shard_counts(
        self, family, nodes, vms, seed, policy
    ):
        """Same seed + topology => same aggregate fingerprint at 1, 2
        and 4 shards, and on a rerun (no hidden per-run state)."""
        spec = scenario_by_name(
            family.format(n=nodes, v=vms), scale=SCALE
        )
        fingerprints = {
            shards: _epoch_run(
                spec, policy, shards=shards, seed=seed
            ).aggregate_fingerprint()
            for shards in (1, 2, 4)
        }
        assert len(set(fingerprints.values())) == 1, fingerprints
        rerun = _epoch_run(spec, policy, shards=2, seed=seed)
        assert rerun.aggregate_fingerprint() == fingerprints[2]

    @settings(deadline=None, max_examples=3)
    @given(
        family=st.sampled_from(COUPLED),
        nodes=st.integers(2, 3),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_inline_matches_process_workers(self, family, nodes, seed):
        """Real spawned shard workers produce the same fingerprint as
        the in-process tasks (scheduling cannot leak into results)."""
        spec = scenario_by_name(family.format(n=nodes, v=1), scale=SCALE)
        inline = _epoch_run(spec, "greedy", shards=2, seed=seed)
        procs = _epoch_run(spec, "greedy", shards=2, seed=seed, inline=False)
        assert (
            procs.aggregate_fingerprint() == inline.aggregate_fingerprint()
        )

    def test_epoch_result_carries_cluster_bookkeeping(self):
        """Driver-side coordinator/link bookkeeping lands in the result
        like the shared engine's does."""
        spec = scenario_by_name("contended:nodes=3", scale=SCALE)
        result = _epoch_run(spec, "greedy", shards=2)
        assert result.cluster is not None
        assert "capacity_moves" in result.cluster
        assert result.cluster["interconnect_pages_moved"] >= 0
        assert "links" in result.cluster
        assert "max_queue_depth" in result.cluster

    def test_no_tmem_policy_is_decoupled_under_epoch(self):
        """no-tmem disables spill; the topology decouples and keeps the
        bit-exact path even under the epoch engine."""
        spec = scenario_by_name("cluster:nodes=2", scale=SCALE)
        runner = ShardedClusterRunner(
            spec, "no-tmem", shards=2, seed=SEED, inline=True,
            cluster_engine="epoch",
        )
        assert runner.path.engine != "epoch"
        shared = run_scenario(spec, "no-tmem", seed=SEED)
        assert runner.run().fingerprint() == shared.fingerprint()


# ---------------------------------------------------------------------------
# coordinator rounds
# ---------------------------------------------------------------------------
class TestEpochCoordinatorRounds:
    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason=(
            "known bug: the driver builds the round views at every "
            "barrier, so the pressure baseline moves every window and a "
            "round sees only the last window's pressure"
        ),
    )
    def test_each_round_sees_the_pressure_since_the_previous_round(
        self, monkeypatch
    ):
        """A round's per-node failed + spilled puts are the counters'
        change since the previous round, as on the exact engine's timer."""
        import repro.cluster.epoch as epoch_module
        from repro.core.coordinator import SpillFeedbackCoordinator

        barriers = []  # (cumulative failed + spilled per node, views)
        round_views = epoch_module.round_views

        def record_barrier(states, baseline):
            views = round_views(states, baseline)
            barriers.append((
                {state.name: state.failed + state.spilled for state in states},
                views,
            ))
            return views

        rounds = []  # the views of each round the coordinator ran
        rebalance = SpillFeedbackCoordinator.rebalance

        def record_round(policy, views):
            rounds.append(views)
            return rebalance(policy, views)

        monkeypatch.setattr(epoch_module, "round_views", record_barrier)
        monkeypatch.setattr(SpillFeedbackCoordinator, "rebalance", record_round)
        spec = scenario_by_name("contended:nodes=2", scale=SCALE)
        _epoch_run(spec, "smart-alloc:P=2", shards=1)
        counters = [
            cumulative for cumulative, views in barriers
            if any(views is seen for seen in rounds)
        ]
        if len(counters) < 2:
            pytest.fail(f"expected two or more rounds, got {len(counters)}")
        previous = {}
        for cumulative, views in zip(counters, rounds):
            assert {
                view.name: view.failed_puts + view.spilled_puts
                for view in views
            } == {
                name: count - previous.get(name, 0)
                for name, count in cumulative.items()
            }
            previous = cumulative


# ---------------------------------------------------------------------------
# the epoch flush path
# ---------------------------------------------------------------------------
class TestEpochFlushPath:
    def test_freeing_spilled_pages_drops_the_hosted_copies(
        self, tmp_path, monkeypatch
    ):
        """Guest frees of spilled pages reach the epoch drop messages.

        The spill-then-free document of ``tests/test_cluster.py`` with a
        0.1 s rebalance interval: its 10 windows put the spills and the
        frees in different windows, so node2's hosted occupancy must rise
        at one barrier and fall back to zero at a later one — which only
        holds when every drop message carries its pages and its ``dst``.
        """
        import json

        from repro.cluster.epoch import EpochDriver
        from repro.scenarios.dsl import compile_text

        pages = 768
        steps = [{"pages": list(range(i, i + 32))} for i in range(0, pages, 32)]
        steps.append({"pages": [], "frees": list(range(pages))})
        trace = tmp_path / "fill-then-free.jsonl"
        trace.write_text("".join(json.dumps(step) + "\n" for step in steps))
        spec = compile_text(
            f"""
scenario: spill-then-free
tmem_mb: 64
vms:
  - name: VM1
    ram_mb: 64
    jobs: [{{kind: trace, params: {{path: "{trace}"}}}}]
  - name: VM2
    ram_mb: 64
    jobs: [{{kind: usemem, params: {{start_mb: 16, max_mb: 16}}}}]
cluster:
  remote_spill: true
  rebalance_interval_s: 0.1
  nodes:
    - {{name: node1, vms: [VM1], tmem_mb: 16}}
    - {{name: node2, vms: [VM2], tmem_mb: 256}}
"""
        ).spec

        hosted = []
        absorb = EpochDriver.absorb

        def spy(driver, reports):
            absorb(driver, reports)
            hosted.append(driver.hosted["node2"])

        monkeypatch.setattr(EpochDriver, "absorb", spy)
        fingerprints = {}
        for shards in (1, 2):
            hosted.clear()
            result = _epoch_run(spec, "greedy", shards=shards)
            node1 = result.cluster["nodes"]["node1"]
            assert node1["spilled_puts"] > 0
            assert node1["remote_flushes"] == node1["spilled_puts"]
            assert max(hosted) > 0
            assert hosted[-1] == 0
            fingerprints[shards] = result.aggregate_fingerprint()
        assert fingerprints[1] == fingerprints[2]
