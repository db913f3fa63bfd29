"""Tests for the Node/Cluster layering, remote-tmem spill and coordination.

The three load-bearing guarantees of the cluster refactor:

1. **Single-node identity** — a cluster of one node is bit-identical
   (``ScenarioResult.fingerprint()``) to the classic single-host runner,
   for every paper policy and the no-tmem baseline.
2. **Remote spill** — on a multi-node topology, overflow puts reach peer
   pools instead of the swap disk, versions stay consistent across the
   interconnect, every invariant holds on every node, and the spill is
   visible in the traces.
3. **Engine equivalence survives the cluster** — the scalar and batched
   guest engines stay bit-identical even when bursts spill remotely.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import clusterize
from repro.config import GuestConfig, SimulationConfig
from repro.core.coordinator import (
    BarrierRebalancer,
    ClusterPolicy,
    NodeState,
    NodeTmemView,
    available_coordinators,
    create_coordinator,
    plan_capacity,
    round_views,
)
from repro.core.policy import available_policies
from repro.errors import ClusterError, ScenarioError
from repro.scenarios.registry import scenario_by_name
from repro.scenarios.results import ScenarioResult
from repro.scenarios.runner import run_scenario
from repro.scenarios.spec import ClusterTopology, NodeSpec
from repro.units import SCENARIO_UNITS

#: Every policy evaluated in the paper's figures, plus the baseline.
ALL_POLICIES = ("no-tmem", "greedy", "static-alloc", "reconf-static",
                "smart-alloc:P=2")


def single_node_topology(spec, **kwargs) -> ClusterTopology:
    """Wrap a single-host spec's VMs in a one-node topology."""
    return ClusterTopology(
        nodes=(
            NodeSpec(
                name="node1",
                vm_names=spec.vm_names(),
                tmem_mb=spec.tmem_mb,
                host_memory_mb=spec.host_memory_mb,
            ),
        ),
        **kwargs,
    )


class TestSingleNodeIdentity:
    """A one-node cluster reproduces the single-host runner bit for bit."""

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_usemem_fingerprint_identical(self, policy):
        spec = scenario_by_name("usemem-scenario", scale=0.1)
        clustered_spec = replace(spec, topology=single_node_topology(spec))

        single = run_scenario(spec, policy, seed=11)
        clustered = run_scenario(clustered_spec, policy, seed=11)

        assert clustered.cluster is not None
        # The cluster section is *extra* information; everything the
        # single-host runner produced must be byte-identical.
        clustered.cluster = None
        assert single.fingerprint() == clustered.fingerprint()

    def test_scenario1_fingerprint_identical_with_coordinator(self):
        """Even an active coordinator is inert on a one-node cluster."""
        spec = scenario_by_name("scenario-1", scale=0.1)
        clustered_spec = replace(
            spec,
            topology=single_node_topology(spec, coordinator="equal-share"),
        )
        single = run_scenario(spec, "smart-alloc:P=2", seed=3)
        clustered = run_scenario(clustered_spec, "smart-alloc:P=2", seed=3)
        clustered.cluster = None
        assert single.fingerprint() == clustered.fingerprint()

    def test_single_host_result_has_no_cluster_section(self):
        spec = scenario_by_name("usemem-scenario", scale=0.1)
        result = run_scenario(spec, "greedy", seed=1)
        assert result.cluster is None
        assert "cluster" not in result.to_dict()


class TestRemoteSpill:
    @pytest.fixture(scope="class")
    def hotnode_result(self):
        spec = scenario_by_name("hotnode:nodes=3", scale=0.08)
        return run_scenario(spec, "greedy", seed=5)

    def test_three_node_scenario_spills(self, hotnode_result):
        nodes = hotnode_result.cluster["nodes"]
        assert hotnode_result.cluster["topology"]["node_count"] == 3
        hot = nodes["hot"]
        assert hot["spilled_puts"] > 0
        assert hot["remote_gets"] > 0
        # The idle peers never overflow, so they never spill.
        assert nodes["node2"]["spilled_puts"] == 0
        assert nodes["node3"]["spilled_puts"] == 0

    def test_spill_is_visible_in_traces(self, hotnode_result):
        trace = hotnode_result.trace
        assert "remote_spill/hot" in trace
        series = trace.get("remote_spill/hot")
        assert series.max() > 0
        # Cumulative counters are non-decreasing.
        values = series.values
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_interconnect_accounting(self, hotnode_result):
        moved = hotnode_result.cluster["interconnect_pages_moved"]
        nodes = hotnode_result.cluster["nodes"]
        spilled = sum(info["spilled_puts"] for info in nodes.values())
        fetched = sum(info["remote_gets"] for info in nodes.values())
        assert moved == spilled + fetched

    def test_spill_avoids_disk_io(self):
        """With spill on, the hot node's overflow stays off the disk."""
        spec = scenario_by_name("hotnode:nodes=2", scale=0.08)
        no_spill = replace(
            spec,
            topology=replace(spec.topology, remote_spill=False,
                             coordinator=None),
        )
        with_spill = run_scenario(spec, "greedy", seed=9)
        without = run_scenario(no_spill, "greedy", seed=9)

        def disk_evictions(result: ScenarioResult) -> int:
            return sum(vm.evictions_to_disk for vm in result.vms.values())

        assert disk_evictions(with_spill) < disk_evictions(without)
        assert with_spill.mean_runtime_s() <= without.mean_runtime_s()

    def test_scalar_and_batched_engines_identical_under_spill(self):
        spec = scenario_by_name("hotnode:nodes=3", scale=0.06)
        fingerprints = {}
        for engine in ("scalar", "batched"):
            config = SimulationConfig(
                units=SCENARIO_UNITS,
                guest=GuestConfig(access_engine=engine),
            )
            result = run_scenario(spec, "greedy", config=config, seed=13)
            fingerprints[engine] = result.fingerprint()
        assert fingerprints["scalar"] == fingerprints["batched"]

    def test_freeing_spilled_pages_flushes_the_remote_copies(self, tmp_path):
        """A guest freeing pages it spilled to a peer flushes them there.

        VM1 replays a trace that touches 768 pages (three times its RAM)
        with a 64-page local pool, so most evictions spill to node2; the
        last step frees every page.  The frees reach
        ``RemoteTmemBackend.remote_flush`` through ``flush_page`` (scalar)
        and the batched flush hypercall (batched).
        """
        import json

        from repro.scenarios.dsl import compile_text
        from repro.scenarios.runner import ScenarioRunner

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
  nodes:
    - {{name: node1, vms: [VM1], tmem_mb: 16}}
    - {{name: node2, vms: [VM2], tmem_mb: 256}}
"""
        ).spec
        fingerprints = {}
        for engine in ("scalar", "batched"):
            config = SimulationConfig(
                units=SCENARIO_UNITS, guest=GuestConfig(access_engine=engine)
            )
            runner = ScenarioRunner(
                spec, "greedy", config=config, seed=2019, check_invariants=True
            )
            result = runner.run()
            node1 = result.cluster["nodes"]["node1"]
            assert node1["spilled_puts"] > 0
            assert node1["remote_flushes"] == node1["spilled_puts"]
            assert runner.cluster.invariant_checker.checks_run > 0
            fingerprints[engine] = result.fingerprint()
        assert fingerprints["scalar"] == fingerprints["batched"]

    def test_spill_client_is_invisible_to_per_node_policies(self):
        """The spill pseudo-domain must not dilute policy target shares.

        Under static-alloc each node's pool is split over the VMs the
        Memory Manager *sees*; the cluster-internal spill client is
        accounted for invariants but hidden from the sampler, so a
        2-VM node splits its pool in half, not in thirds, and the spill
        client never receives an mm_target (spill admission stays
        bounded by free frames only).
        """
        from repro.scenarios.runner import ScenarioRunner

        spec = scenario_by_name("cluster:nodes=2,vms_per_node=2", scale=0.05)
        runner = ScenarioRunner(spec, "static-alloc", seed=2)
        result = runner.run()
        assert result.cluster is not None
        for node in runner.nodes:
            accounting = node.hypervisor.accounting
            internal = [
                acc for acc in accounting.accounts() if acc.internal
            ]
            assert len(internal) == 1  # the spill client exists...
            assert internal[0].mm_target == -1  # ...but was never targeted
            assert accounting.vm_count == 2  # and is not counted as a VM
            # Every guest's final target is an equal half-split of the
            # node's pool (static-alloc), not a third.
            snapshot = node.hypervisor.sampler.sample_now()
            assert snapshot.vm_count == 2
            targets = {
                sample.vm_id: sample.mm_target for sample in snapshot.vms
            }
            assert len(targets) == 2
            total = node.total_tmem_pages
            assert sum(targets.values()) == total
            assert max(targets.values()) - min(targets.values()) <= 1

    def test_cluster_result_serialization_round_trip(self, hotnode_result):
        data = hotnode_result.to_dict()
        assert "cluster" in data
        restored = ScenarioResult.from_dict(data)
        assert restored.cluster == hotnode_result.cluster
        assert restored.fingerprint() == hotnode_result.fingerprint()


class TestClusterFamilies:
    @pytest.mark.parametrize("policy", list(available_policies()) + ["no-tmem"])
    @pytest.mark.parametrize(
        "family", ["cluster:nodes=2,vms_per_node=1", "hotnode:nodes=2"]
    )
    def test_families_run_under_every_policy(self, family, policy):
        spec = scenario_by_name(family, scale=0.05)
        result = run_scenario(spec, policy, seed=2)
        assert result.cluster is not None
        assert all(vm.runs for vm in result.vms.values())
        assert result.simulated_duration_s > 0

    def test_cluster_families_listed_by_cli(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "cluster" in out and "hotnode" in out
        # The policies, with their parameters, and the coordinators are
        # listed too.
        assert (
            "smart-alloc        params: percent, threshold_pages, "
            "threshold_fraction Demand-driven target adaptation"
        ) in out
        assert "equal-share" in out and "pressure-prop" in out

    def test_topology_must_place_every_vm(self):
        spec = scenario_by_name("scenario-1", scale=0.1)
        with pytest.raises(ScenarioError):
            replace(
                spec,
                topology=ClusterTopology(
                    nodes=(
                        NodeSpec(name="n1", vm_names=("VM1",), tmem_mb=64),
                    )
                ),
            )

    def test_clusterize_replicates_and_prefixes(self):
        spec = scenario_by_name("usemem-scenario", scale=0.1)
        clustered = clusterize(spec, 2, coordinator="equal-share")
        assert len(clustered.vms) == 2 * len(spec.vms)
        assert clustered.topology is not None
        assert clustered.topology.node_names() == ("node1", "node2")
        assert "n1.VM1" in clustered.vm_names()
        # Phase triggers are replicated per node; the stop trigger keeps
        # a single cluster-wide watcher.
        assert len(clustered.phase_triggers) == 2 * len(spec.phase_triggers)
        assert clustered.stop_trigger.watch_vm == "n1.VM3"
        with pytest.raises(ClusterError):
            clusterize(clustered, 2)


@st.composite
def capacity_plans(draw):
    """1-6 node records (free <= capacity, any fallow DRAM) and desired
    capacities for any subset of them."""
    states = []
    desired = {}
    for k in range(draw(st.integers(1, 6))):
        name = f"node{k}"
        capacity = draw(st.integers(0, 300))
        states.append(NodeState(
            name=name,
            capacity=capacity,
            free=draw(st.integers(0, capacity)),
            unassigned=draw(st.integers(0, 300)),
            failed=0, spilled=0, dropped=0, vm_count=1,
        ))
        if draw(st.booleans()):
            desired[name] = draw(st.integers(0, 600))
    return states, desired


@st.composite
def counter_snapshots(draw):
    """Successive records of 1-4 nodes whose cumulative counters move
    freely, shrinking sums included."""
    names = [f"node{k}" for k in range(draw(st.integers(1, 4)))]
    counter = st.integers(0, 1000)
    snapshots = []
    for _ in range(draw(st.integers(1, 8))):
        snapshot = []
        for name in names:
            capacity = draw(st.integers(0, 300))
            snapshot.append(NodeState(
                name=name,
                capacity=capacity,
                free=draw(st.integers(0, capacity)),
                unassigned=draw(st.integers(0, 300)),
                failed=draw(counter),
                spilled=draw(counter),
                dropped=draw(counter),
                vm_count=draw(st.integers(0, 4)),
            ))
        snapshots.append(snapshot)
    return snapshots


class TestCoordinator:
    def view(self, name, capacity, *, used=0, failed=0, spilled=0):
        return NodeTmemView(
            name=name,
            capacity_pages=capacity,
            used_pages=used,
            free_pages=capacity - used,
            failed_puts=failed,
            spilled_puts=spilled,
            vm_count=1,
        )

    def test_registry_contents(self):
        assert "equal-share" in available_coordinators()
        assert "pressure-prop" in available_coordinators()

    def test_equal_share_partitions_exactly(self):
        coordinator = create_coordinator("equal-share")
        views = [self.view("a", 100), self.view("b", 401), self.view("c", 0)]
        desired = coordinator.rebalance(views)
        assert sum(desired.values()) == 501
        assert max(desired.values()) - min(desired.values()) <= 1
        # Unchanged membership -> no re-emission.
        assert coordinator.rebalance(
            [self.view("a", 167), self.view("b", 167), self.view("c", 167)]
        ) is None

    def test_pressure_prop_moves_towards_pressure(self):
        coordinator = create_coordinator("pressure-prop:percent=50")
        views = [
            self.view("hot", 100, failed=500, spilled=300),
            self.view("idle", 500),
        ]
        desired = coordinator.rebalance(views)
        assert desired is not None
        assert sum(desired.values()) == 600
        assert desired["hot"] > 100
        assert desired["idle"] < 500

    def test_pressure_prop_parameter_validation(self):
        from repro.errors import PolicyError

        with pytest.raises(PolicyError):
            create_coordinator("pressure-prop:percent=0")
        with pytest.raises(PolicyError):
            create_coordinator("pressure-prop:floor=1.5")
        with pytest.raises(PolicyError, match="'spill_weight': expected a finite"):
            create_coordinator("spill-feedback:spill_weight=nan")

    def test_coordinator_keys_are_case_insensitive(self):
        assert create_coordinator("pressure-prop:PERCENT=15").percent == 15.0

    def test_unknown_coordinator_rejected(self):
        from repro.errors import UnknownPolicyError

        with pytest.raises(UnknownPolicyError):
            create_coordinator("does-not-exist")

    def test_hotnode_coordination_grows_the_hot_pool(self):
        """End to end: pressure-proportional coordination chases the load."""
        spec = scenario_by_name("hotnode:nodes=3", scale=0.08)
        result = run_scenario(spec, "greedy", seed=5)
        units = SCENARIO_UNITS
        initial_hot = units.pages_from_mib(spec.topology.nodes[0].tmem_mb)
        initial_peer = units.pages_from_mib(spec.topology.nodes[1].tmem_mb)
        nodes = result.cluster["nodes"]
        assert result.cluster["capacity_moves"] > 0
        assert nodes["hot"]["tmem_pages_end"] > initial_hot
        assert nodes["node2"]["tmem_pages_end"] < initial_peer
        assert "tmem_capacity/hot" in result.trace

    def test_total_capacity_is_conserved(self):
        spec = scenario_by_name("hotnode:nodes=2", scale=0.08)
        result = run_scenario(spec, "greedy", seed=5)
        units = SCENARIO_UNITS
        initial = sum(
            units.pages_from_mib(node.tmem_mb)
            for node in spec.topology.nodes
        )
        final = sum(
            info["tmem_pages_end"]
            for info in result.cluster["nodes"].values()
        )
        # Rebalancing is transactional: grows are funded exclusively by
        # shrinks, so the cluster's enabled capacity is conserved exactly.
        assert final == initial

    @settings(deadline=None)
    @given(plan=capacity_plans())
    def test_capacity_plan_is_feasible_and_transactional(self, plan):
        """The shared planner of both cluster engines: every step fits
        the node's physical limits, growth is funded exactly by shrinks,
        and as many pages move as both sides allow."""
        states, desired = plan
        steps = plan_capacity(states, desired)
        by_name = {state.name: state for state in states}
        assert sum(delta for _, delta in steps) == 0
        names = [name for name, _ in steps]
        assert len(names) == len(set(names))
        assert all(delta != 0 for _, delta in steps)
        grows = [delta > 0 for _, delta in steps]
        assert grows == sorted(grows)  # every shrink before every grow
        for name, delta in steps:
            state = by_name[name]
            if delta < 0:
                assert -delta <= state.free
                assert -delta <= state.capacity - desired[name]
            else:
                assert delta <= state.unassigned
                assert delta <= desired[name] - state.capacity
        targeted = [state for state in states if state.name in desired]
        can_shed = sum(
            min(state.capacity - desired[state.name], state.free)
            for state in targeted if desired[state.name] < state.capacity
        )
        can_take = sum(
            min(desired[state.name] - state.capacity, state.unassigned)
            for state in targeted if desired[state.name] > state.capacity
        )
        moved = sum(delta for _, delta in steps if delta > 0)
        assert moved == min(can_shed, can_take)

    @settings(deadline=None)
    @given(snapshots=counter_snapshots())
    def test_round_views_count_each_rounds_change(self, snapshots):
        """Each round counts max(0, now - previous) per counter, the
        baseline ends at the last snapshot, and used + free == capacity."""
        baseline = {}
        previous = {}
        for snapshot in snapshots:
            views = round_views(snapshot, baseline)
            assert [view.name for view in views] == [s.name for s in snapshot]
            for state, view in zip(snapshot, views):
                failed, spilled, dropped = previous.get(state.name, (0, 0, 0))
                assert view.failed_puts == max(0, state.failed - failed)
                assert view.spilled_puts == max(0, state.spilled - spilled)
                assert view.dropped_pages == max(0, state.dropped - dropped)
                assert view.capacity_pages == state.capacity
                assert view.free_pages == state.free
                assert view.used_pages + view.free_pages == view.capacity_pages
                assert view.vm_count == state.vm_count
                previous[state.name] = (state.failed, state.spilled, state.dropped)
        assert baseline == {
            state.name: (state.failed, state.spilled, state.dropped)
            for state in snapshots[-1]
        }

    @pytest.mark.parametrize("interval", [2.0, 0.5, 3.0])
    def test_barrier_rounds_fire_on_multiples_of_the_interval(self, interval):
        """Barriers every interval/2: one round at each multiple of the
        interval and none between; a barrier past several ticks fires
        one round and the schedule resumes after it."""
        rounds = []

        class Recorder(ClusterPolicy):
            def rebalance(self, views):
                rounds.append(views)
                return None

        rebalancer = BarrierRebalancer(Recorder(), interval)
        fired = []
        for k in range(1, 13):
            barrier = k * interval / 2
            before = len(rounds)
            assert rebalancer.poll(barrier, []) is None
            assert len(rounds) - before <= 1
            if len(rounds) > before:
                fired.append(barrier)
        assert fired == [m * interval for m in range(1, 7)]
        rebalancer.poll(9.5 * interval, [])
        assert len(rounds) == 7
        rebalancer.poll(9.75 * interval, [])
        assert len(rounds) == 7
        rebalancer.poll(10 * interval, [])
        assert len(rounds) == 8


class TestClusterAnalysis:
    def test_node_summaries_and_rollup(self):
        from repro.analysis.cluster import (
            cluster_rollup,
            node_summaries,
            render_cluster_table,
        )

        spec = scenario_by_name("hotnode:nodes=2", scale=0.08)
        result = run_scenario(spec, "greedy", seed=5)
        summaries = node_summaries(result)
        assert [s.node_name for s in summaries] == ["hot", "node2"]
        assert summaries[0].spilled_puts > 0
        rollup = cluster_rollup(result)
        assert rollup["node_count"] == 2
        assert 0 < rollup["spill_ratio"] <= 1
        table = render_cluster_table(result, title="per-node")
        assert "hot" in table and "(cluster)" in table

    def test_single_host_result_rejected(self):
        from repro.analysis.cluster import node_summaries
        from repro.errors import AnalysisError

        spec = scenario_by_name("usemem-scenario", scale=0.1)
        result = run_scenario(spec, "greedy", seed=1)
        with pytest.raises(AnalysisError):
            node_summaries(result)


class TestClusterCli:
    def test_run_with_nodes_flag(self, capsys):
        from repro.cli import main

        code = main([
            "run", "usemem-scenario",
            "--scale", "0.08",
            "--seed", "5",
            "--nodes", "2",
            "--policy", "greedy",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "usemem-scenario@2nodes" in out
        assert "Per-node breakdown" in out
        assert "(cluster)" in out

    def test_nodes_flag_rejected_on_cluster_native_scenario(self, capsys):
        from repro.cli import main

        code = main([
            "run", "hotnode:nodes=2", "--nodes", "3", "--policy", "greedy",
        ])
        assert code == 2
