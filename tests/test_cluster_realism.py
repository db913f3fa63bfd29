"""Tests for cluster realism: contention, failure/migration, ephemeral spill.

Four load-bearing guarantees of the PR-5 cluster features:

1. **Contention is real and deterministic** — a ``contended:`` scenario
   shows per-link queue depth > 0 in its cluster section, repeated runs
   of the same seed are bit-identical, and the scalar and batched guest
   engines stay bit-identical even though every remote operation now
   carries its own queue-aware cost.
2. **Pins survive** — single-host scenarios and one-node clusters are
   untouched by the queueing channel, and plain (uncontended,
   failure-free) cluster runs serialize without any of the new keys.
3. **Failure & migration semantics** — a dead node's hosted frontswap
   pages are re-materialised via the owners' swap disks, its VMs finish
   on surviving nodes, planned migration moves a live VM with a modeled
   copy cost/downtime, and everything stays deterministic.
4. **Ephemeral remote cleancache** — peers host cleancache overflow in
   ephemeral pools, serve it back non-exclusively, and drop it (oldest
   first, owner notified) when their own VMs need the frames.
"""

from __future__ import annotations

import itertools
from dataclasses import replace

import pytest

from repro.channels.internode import InterNodeChannel
from repro.config import GuestConfig, SimulationConfig
from repro.core.coordinator import (
    NodeTmemView,
    available_coordinators,
    create_coordinator,
)
from repro.errors import ScenarioError
from repro.guest.cleancache import CleancacheClient
from repro.guest.frontswap import FrontswapClient
from repro.hypervisor.remote_tmem import RemoteTmemBackend
from repro.hypervisor.xen import Hypervisor
from repro.scenarios.registry import scenario_by_name
from repro.scenarios.results import ScenarioResult
from repro.scenarios.runner import run_scenario
from repro.scenarios.spec import ClusterTopology, NodeFailure, VmMigration
from repro.sim.engine import SimulationEngine
from repro.units import SCENARIO_UNITS


class TestContendedScenario:
    @pytest.fixture(scope="class")
    def contended_result(self):
        spec = scenario_by_name("contended:nodes=3", scale=0.08)
        return run_scenario(spec, "greedy", seed=5)

    def test_queue_depth_positive_in_cluster_section(self, contended_result):
        cluster = contended_result.cluster
        assert cluster["max_queue_depth"] > 0
        assert cluster["links"]
        assert any(
            link["max_queue_depth"] > 0 for link in cluster["links"].values()
        )
        assert any(
            link["queue_wait_s"] > 0 for link in cluster["links"].values()
        )

    def test_queue_depth_traced(self, contended_result):
        names = [
            name for name in contended_result.trace.names()
            if name.startswith("link_queue/")
        ]
        assert names
        assert any(
            contended_result.trace.get(name).max() > 0 for name in names
        )

    def test_bit_identical_across_repeated_runs(self, contended_result):
        spec = scenario_by_name("contended:nodes=3", scale=0.08)
        again = run_scenario(spec, "greedy", seed=5)
        assert again.fingerprint() == contended_result.fingerprint()

    def test_serialization_round_trip(self, contended_result):
        data = contended_result.to_dict()
        assert "links" in data["cluster"]
        restored = ScenarioResult.from_dict(data)
        assert restored.fingerprint() == contended_result.fingerprint()

    def test_scalar_and_batched_engines_identical_under_contention(self):
        spec = scenario_by_name("contended:nodes=3", scale=0.06)
        fingerprints = {}
        for engine in ("scalar", "batched"):
            config = SimulationConfig(
                units=SCENARIO_UNITS,
                guest=GuestConfig(access_engine=engine),
            )
            result = run_scenario(spec, "greedy", config=config, seed=13)
            fingerprints[engine] = result.fingerprint()
        assert fingerprints["scalar"] == fingerprints["batched"]

    def test_contention_slows_the_guests_down(self):
        """Queue waits are charged to the guests: the same scenario on an
        infinite-capacity (uncontended) channel must not be slower."""
        spec = scenario_by_name("contended:nodes=2", scale=0.06)
        free = replace(spec, topology=replace(spec.topology, contended=False))
        contended = run_scenario(spec, "greedy", seed=9)
        uncontended = run_scenario(free, "greedy", seed=9)
        assert contended.mean_runtime_s() >= uncontended.mean_runtime_s()

    def test_plain_cluster_results_carry_no_new_keys(self):
        """Uncontended, failure-free runs serialize exactly as before
        (this is what keeps the cluster:nodes=3 fingerprint pins)."""
        spec = scenario_by_name("cluster:nodes=2,vms_per_node=1", scale=0.05)
        result = run_scenario(spec, "greedy", seed=2)
        cluster = result.cluster
        assert "links" not in cluster
        assert "events" not in cluster
        assert all(
            "failed" not in info and "ephemeral_spilled" not in info
            for info in cluster["nodes"].values()
        )

    def test_one_node_cluster_with_queueing_channel_matches_single_host(self):
        """The satellite guarantee: the new channel leaves one-node
        clusters bit-identical to the classic single-host runner."""
        from repro.scenarios.spec import NodeSpec

        spec = scenario_by_name("usemem-scenario", scale=0.1)
        clustered = replace(
            spec,
            topology=ClusterTopology(
                nodes=(
                    NodeSpec(
                        name="node1",
                        vm_names=spec.vm_names(),
                        tmem_mb=spec.tmem_mb,
                        host_memory_mb=spec.host_memory_mb,
                    ),
                ),
                contended=True,
            ),
        )
        single = run_scenario(spec, "greedy", seed=11)
        cluster = run_scenario(clustered, "greedy", seed=11)
        cluster.cluster = None
        assert single.fingerprint() == cluster.fingerprint()


class TestFailover:
    @pytest.fixture(scope="class")
    def failover_result(self):
        spec = scenario_by_name("failover:nodes=3,fail_at=10", scale=0.08)
        return run_scenario(spec, "greedy", seed=5)

    def test_run_completes_with_migrated_vms(self, failover_result):
        events = failover_result.cluster["events"]
        failure = next(e for e in events if e["kind"] == "failure")
        assert failure["node"] == "node2"
        assert failure["migrated_vms"] == ["n2.VM1"]
        assert failure["completed_at_s"] >= failure["at_s"]
        assert failure["copied_pages"] > 0
        # Every VM — including the failed node's — finished its runs.
        assert all(vm.runs for vm in failover_result.vms.values())
        # The dead node ends with no VMs; a survivor adopted n2.VM1.
        nodes = failover_result.cluster["nodes"]
        assert nodes["node2"]["failed"] is True
        assert nodes["node2"]["vm_names"] == []
        adopters = [
            name for name, info in nodes.items()
            if "n2.VM1" in info["vm_names"]
        ]
        assert len(adopters) == 1 and adopters[0] != "node2"

    def test_hosted_pages_lost_and_recovered(self, failover_result):
        """Frontswap pages hosted on the dead vault are refaulted from
        disk: the loss is counted and the owners keep running."""
        events = failover_result.cluster["events"]
        failure = next(e for e in events if e["kind"] == "failure")
        assert failure["lost_frontswap_pages"] > 0
        nodes = failover_result.cluster["nodes"]
        assert sum(info["pages_lost"] for info in nodes.values()) > 0

    def test_deterministic(self, failover_result):
        spec = scenario_by_name("failover:nodes=3,fail_at=10", scale=0.08)
        again = run_scenario(spec, "greedy", seed=5)
        assert again.fingerprint() == failover_result.fingerprint()

    def test_failure_makes_the_cluster_slower(self):
        """Losing the spill vault costs real time (disk refaults +
        migration downtime) compared to the same run without a failure."""
        spec = scenario_by_name("failover:nodes=3,fail_at=10", scale=0.08)
        sound = replace(spec, topology=replace(spec.topology, failures=()))
        failed = run_scenario(spec, "greedy", seed=5)
        healthy = run_scenario(sound, "greedy", seed=5)
        assert failed.mean_runtime_s() > healthy.mean_runtime_s()

    def test_every_node_failing_is_rejected(self):
        spec = scenario_by_name("failover:nodes=3", scale=0.08)
        with pytest.raises(ScenarioError):
            replace(
                spec,
                topology=replace(
                    spec.topology,
                    failures=tuple(
                        NodeFailure(node=f"node{k}", at_s=10.0 + k)
                        for k in (1, 2, 3)
                    ),
                ),
            )

    def test_unknown_failure_node_rejected(self):
        spec = scenario_by_name("failover:nodes=3", scale=0.08)
        with pytest.raises(ScenarioError):
            replace(
                spec,
                topology=replace(
                    spec.topology,
                    failures=(NodeFailure(node="nope", at_s=10.0),),
                ),
            )


class TestPlannedMigration:
    @pytest.fixture(scope="class")
    def migrate_result(self):
        spec = scenario_by_name("migrate:nodes=2,at=5", scale=0.08)
        return run_scenario(spec, "greedy", seed=5)

    def test_vm_finishes_on_target_node(self, migrate_result):
        nodes = migrate_result.cluster["nodes"]
        assert nodes["node1"]["vm_names"] == []
        assert "n1.VM1" in nodes["node2"]["vm_names"]
        assert all(vm.runs for vm in migrate_result.vms.values())

    def test_migration_event_records_copy_and_downtime(self, migrate_result):
        event = next(
            e for e in migrate_result.cluster["events"]
            if e["kind"] == "migration"
        )
        assert event["vm"] == "n1.VM1"
        assert event["from"] == "node1" and event["to"] == "node2"
        assert event["copied_pages"] > 1
        assert event["downtime_s"] > 0
        assert event["completed_at_s"] == pytest.approx(
            event["at_s"] + event["downtime_s"]
        )

    def test_source_node_accounting_is_clean(self, migrate_result):
        """Planned migration tears the source side down properly, so the
        run's final invariant check (which covers node1) passed and the
        VM's cumulative counters span the whole run."""
        vm = migrate_result.vm("n1.VM1")
        assert vm.cumul_puts_total > 0
        assert vm.evictions_to_tmem + vm.evictions_to_disk > 0

    def test_deterministic(self, migrate_result):
        spec = scenario_by_name("migrate:nodes=2,at=5", scale=0.08)
        again = run_scenario(spec, "greedy", seed=5)
        assert again.fingerprint() == migrate_result.fingerprint()

    def test_smart_alloc_migrates_the_vm(self):
        """The Memory Manager's target write-back on the source node can
        arrive after the VM left it; the run completes under the paper's
        policy and the VM finishes on its new node."""
        spec = scenario_by_name("migrate", scale=0.1)
        result = run_scenario(spec, "smart-alloc", seed=2019)
        nodes = result.cluster["nodes"]
        assert "n1.VM1" not in nodes["node1"]["vm_names"]
        assert "n1.VM1" in nodes["node2"]["vm_names"]
        assert all(vm.runs for vm in result.vms.values())

    def test_migration_during_inflight_relocation_is_skipped(self):
        """One live relocation per VM: a planned move scheduled while a
        failover copy is in flight must not start a second copy (which
        would resume the guest before its state arrived)."""
        spec = scenario_by_name("failover:nodes=3,fail_at=6", scale=0.08)
        spec = replace(
            spec,
            topology=replace(
                spec.topology,
                migrations=(
                    VmMigration(vm="n2.VM1", to_node="node3", at_s=6.0001),
                ),
            ),
        )
        result = run_scenario(spec, "greedy", seed=5)
        events = result.cluster["events"]
        skipped = [e for e in events if e.get("skipped")]
        assert len(skipped) == 1 and skipped[0]["vm"] == "n2.VM1"
        assert all(vm.runs for vm in result.vms.values())

    def test_target_dying_mid_copy_chains_a_second_failover(self):
        """If the copy's destination fails while the state is in flight,
        the VM is relocated again to a survivor instead of resuming on
        the carcass."""
        spec = scenario_by_name("migrate:nodes=3,at=5", scale=0.08)
        spec = replace(
            spec,
            topology=replace(
                spec.topology,
                failures=(NodeFailure(node="node2", at_s=5.001),),
            ),
        )
        result = run_scenario(spec, "greedy", seed=5)
        nodes = result.cluster["nodes"]
        assert nodes["node2"]["failed"] is True
        assert "n1.VM1" in nodes["node3"]["vm_names"]
        assert all(vm.runs for vm in result.vms.values())
        again = run_scenario(spec, "greedy", seed=5)
        assert again.fingerprint() == result.fingerprint()

    def test_planned_repatriation_reports_no_losses(self):
        """A failure-free migrate run must report zero pages_lost even
        when the VM had spilled pages onto its destination (those are
        planned repatriations, not failure losses)."""
        spec = scenario_by_name("migrate:nodes=2,at=5", scale=0.08)
        result = run_scenario(spec, "greedy", seed=5)
        nodes = result.cluster["nodes"]
        assert all(info["pages_lost"] == 0 for info in nodes.values())

    def test_migrating_to_home_node_rejected(self):
        spec = scenario_by_name("migrate:nodes=2", scale=0.08)
        with pytest.raises(ScenarioError):
            replace(
                spec,
                topology=replace(
                    spec.topology,
                    migrations=(
                        VmMigration(vm="n1.VM1", to_node="node1", at_s=5.0),
                    ),
                ),
            )


def build_nodes(*pool_pages):
    """Wired hypervisors + remote backends on one engine, one node per
    pool size, each node peered with every other."""
    engine = SimulationEngine()
    config = SimulationConfig(units=SCENARIO_UNITS)
    domids = itertools.count(1)
    hypervisors = [
        Hypervisor(
            engine, config,
            host_memory_pages=2000,
            tmem_pool_pages=pages,
            domid_allocator=lambda counter=domids: next(counter),
        )
        for pages in pool_pages
    ]
    channel = InterNodeChannel(
        engine, latency_s=25e-6, bandwidth_bytes_s=1.25e9, page_bytes=4096
    )
    backends = [
        RemoteTmemBackend(f"n{i}", h, channel)
        for i, h in enumerate(hypervisors)
    ]
    for backend in backends:
        backend.connect(
            [peer for peer in backends if peer is not backend],
            spill_client_id=next(domids),
        )
    return engine, hypervisors, backends, domids


def build_two_nodes(pool_pages=50):
    """Two wired hypervisors + remote backends on one engine."""
    return build_nodes(pool_pages, pool_pages)


class TestEphemeralRemoteCleancache:
    def test_cleancache_overflow_spills_to_ephemeral_pool(self):
        _, (h0, _h1), (b0, b1), domids = build_two_nodes()
        dom = h0.create_domain("vm", ram_pages=100)
        b0.register_home_vm(dom.vm_id)
        record = h0.register_tmem_client(
            dom.vm_id, frontswap=True, cleancache=True
        )
        client = CleancacheClient(
            dom.vm_id, record.cleancache_pool_id, h0.hypercalls
        )
        for page in range(70):  # 50 local frames + 20 spilled
            stored, _latency = client.put_page(page, now=0.0)
            assert stored
        assert b1.hosted_ephemeral_pages == 20
        assert b0.remote_ephemeral_pages_of(dom.vm_id) == 20
        assert b0.stats.ephemeral_spilled == 20
        # Persistent counters are untouched by ephemeral traffic.
        assert b0.stats.pages_spilled == 0

    def test_remote_ephemeral_get_is_non_exclusive(self):
        _, (h0, _h1), (b0, b1), _domids = build_two_nodes()
        dom = h0.create_domain("vm", ram_pages=100)
        b0.register_home_vm(dom.vm_id)
        record = h0.register_tmem_client(
            dom.vm_id, frontswap=True, cleancache=True
        )
        client = CleancacheClient(
            dom.vm_id, record.cleancache_pool_id, h0.hypercalls
        )
        for page in range(60):
            client.put_page(page, now=0.0)
        hosted = b1.hosted_ephemeral_pages
        assert hosted > 0
        hit, _latency = client.get_page(59)
        assert hit
        # Unlike a frontswap fetch, the hosted copy stays on the peer.
        assert b1.hosted_ephemeral_pages == hosted
        hit_again, _latency = client.get_page(59)
        assert hit_again

    def test_local_pressure_drops_oldest_hosted_ephemeral(self):
        _, (h0, h1), (b0, b1), _domids = build_two_nodes()
        dom = h0.create_domain("vm", ram_pages=100)
        b0.register_home_vm(dom.vm_id)
        record = h0.register_tmem_client(
            dom.vm_id, frontswap=True, cleancache=True
        )
        client = CleancacheClient(
            dom.vm_id, record.cleancache_pool_id, h0.hypercalls
        )
        for page in range(70):
            client.put_page(page, now=0.0)
        assert b1.hosted_ephemeral_pages == 20

        # Node 1's own VM now needs every frame of its pool: the hosted
        # foreign ephemerals yield, oldest first, owner notified.
        dom1 = h1.create_domain("vm1", ram_pages=100)
        b1.register_home_vm(dom1.vm_id)
        record1 = h1.register_tmem_client(dom1.vm_id, frontswap=True)
        frontswap = FrontswapClient(
            dom1.vm_id, record1.frontswap_pool_id, h1.hypercalls
        )
        overflow = 5
        for page in range(h1.free_tmem_pages + overflow):
            stored, _latency = frontswap.store(page, now=1.0)
            assert stored  # local demand always wins over foreign spill
        assert b1.stats.hosted_drops == overflow
        assert b0.stats.ephemeral_dropped == overflow
        assert b1.hosted_ephemeral_pages == 20 - overflow
        # The dropped pages were the oldest spills (pages 50..54):
        # a later lookup is a legal cleancache miss.
        hit, _latency = client.get_page(50)
        assert not hit
        hit, _latency = client.get_page(69)
        assert hit
        h0.check_invariants()
        h1.check_invariants()

    def test_pressure_drops_notify_the_migrated_owner(self):
        """Hosted ephemeral pages follow their VM to its new home.

        n0 spills 20 cleancache pages to n1 (the peer with the most free
        frames), then the VM's spill index moves to n2.  When n1's own
        VM overflows its pool by 5 pages, the 5 oldest hosted pages
        yield and n2, not n0, is told.
        """
        _, (h0, h1, _h2), (b0, b1, b2), _domids = build_nodes(50, 50, 10)
        dom = h0.create_domain("vm", ram_pages=100)
        b0.register_home_vm(dom.vm_id)
        record = h0.register_tmem_client(
            dom.vm_id, frontswap=True, cleancache=True
        )
        client = CleancacheClient(
            dom.vm_id, record.cleancache_pool_id, h0.hypercalls
        )
        for page in range(70):  # 50 local frames + 20 spilled to n1
            client.put_page(page, now=0.0)
        assert b1.hosted_ephemeral_pages == 20

        b2.adopt_vm(dom.vm_id, *b0.extract_vm(dom.vm_id))
        assert b2.remote_ephemeral_pages_of(dom.vm_id) == 20

        dom1 = h1.create_domain("vm1", ram_pages=100)
        record1 = h1.register_tmem_client(dom1.vm_id, frontswap=True)
        frontswap = FrontswapClient(
            dom1.vm_id, record1.frontswap_pool_id, h1.hypercalls
        )
        for page in range(h1.free_tmem_pages + 5):
            stored, _latency = frontswap.store(page, now=1.0)
            assert stored
        assert b2.stats.ephemeral_dropped == 5
        assert b0.stats.ephemeral_dropped == 0
        assert b2.remote_ephemeral_pages_of(dom.vm_id) == 15

    def test_frontswap_spill_is_never_dropped(self):
        """Persistent spill stays persistent: pressure on the host can
        only evict ephemeral pages, not frontswap overflow."""
        _, (h0, h1), (b0, b1), _domids = build_two_nodes()
        dom = h0.create_domain("vm", ram_pages=100)
        b0.register_home_vm(dom.vm_id)
        record = h0.register_tmem_client(dom.vm_id, frontswap=True)
        frontswap = FrontswapClient(
            dom.vm_id, record.frontswap_pool_id, h0.hypercalls
        )
        for page in range(60):  # 50 local + 10 persistent spill
            stored, _latency = frontswap.store(page, now=0.0)
            assert stored
        assert b0.stats.pages_spilled == 10

        dom1 = h1.create_domain("vm1", ram_pages=100)
        b1.register_home_vm(dom1.vm_id)
        record1 = h1.register_tmem_client(dom1.vm_id, frontswap=True)
        fs1 = FrontswapClient(
            dom1.vm_id, record1.frontswap_pool_id, h1.hypercalls
        )
        free = h1.free_tmem_pages
        stored_count = sum(
            1 for page in range(free + 5)
            if fs1.store(1_000_000 + page, now=1.0)[0]
        )
        # No ephemeral pages to drop: the overflow spills back or fails,
        # but the hosted persistent pages survive untouched.
        assert b1.stats.hosted_drops == 0
        assert b0.remote_pages_of(dom.vm_id) == 10
        for page in range(50, 60):
            hit, _latency = frontswap.load(page)
            assert hit
        assert stored_count >= free


class TestSpillFeedbackCoordinator:
    def view(self, name, capacity, *, failed=0, spilled=0, dropped=0):
        return NodeTmemView(
            name=name,
            capacity_pages=capacity,
            used_pages=0,
            free_pages=capacity,
            failed_puts=failed,
            spilled_puts=spilled,
            vm_count=1,
            dropped_pages=dropped,
        )

    def test_registered(self):
        assert "spill-feedback" in available_coordinators()

    def test_moves_capacity_towards_spilling_node(self):
        coordinator = create_coordinator("spill-feedback:percent=50")
        desired = coordinator.rebalance([
            self.view("spiller", 100, spilled=400),
            self.view("idle", 500),
        ])
        assert desired is not None
        assert sum(desired.values()) == 600
        assert desired["spiller"] > 100
        assert desired["idle"] < 500

    def test_drops_outweigh_spills(self):
        """A node whose remote pages come back as drops needs local
        capacity more than one whose spills stay parked."""
        coordinator = create_coordinator(
            "spill-feedback:percent=50,spill_weight=1,drop_weight=4"
        )
        desired = coordinator.rebalance([
            self.view("dropping", 300, spilled=100, dropped=100),
            self.view("spilling", 300, spilled=100),
            self.view("idle", 300),
        ])
        assert desired is not None
        assert desired["dropping"] > desired["spilling"] > desired["idle"]

    def test_parameter_validation(self):
        from repro.errors import PolicyError

        with pytest.raises(PolicyError):
            create_coordinator("spill-feedback:drop_weight=-1")

    def test_end_to_end_feedback_grows_pressured_pool(self):
        """Asymmetric load (small pressured pools vs an idle vault):
        spill feedback moves capacity away from the vault."""
        spec = scenario_by_name("failover:nodes=3,fail_at=1000", scale=0.08)
        units = SCENARIO_UNITS
        result = run_scenario(spec, "greedy", seed=7)
        assert result.cluster["capacity_moves"] > 0
        vault_initial = units.pages_from_mib(spec.topology.nodes[1].tmem_mb)
        nodes = result.cluster["nodes"]
        assert nodes["node2"]["tmem_pages_end"] < vault_initial


class TestClusterAnalysisExtensions:
    def test_link_summaries_and_rollup(self):
        from repro.analysis.cluster import (
            cluster_rollup,
            link_summaries,
            render_cluster_table,
        )

        spec = scenario_by_name("contended:nodes=2", scale=0.06)
        result = run_scenario(spec, "greedy", seed=7)
        links = link_summaries(result)
        assert links
        assert all(link.pages > 0 for link in links)
        assert any(link.queue_wait_s > 0 for link in links)
        assert all(0 <= link.utilization <= 1 for link in links)
        rollup = cluster_rollup(result)
        assert rollup["max_queue_depth"] > 0
        assert rollup["interconnect_busy_s"] > 0
        table = render_cluster_table(result, title="contended")
        assert "max depth" in table

    def test_plain_cluster_rollup_reports_zero_contention(self):
        from repro.analysis.cluster import cluster_rollup, link_summaries

        spec = scenario_by_name("cluster:nodes=2,vms_per_node=1", scale=0.05)
        result = run_scenario(spec, "greedy", seed=2)
        assert link_summaries(result) == []
        rollup = cluster_rollup(result)
        assert rollup["max_queue_depth"] == 0
        assert rollup["failures"] == 0 and rollup["migrations"] == 0


class TestClusterRealismCli:
    def test_run_with_contention_and_failure(self, capsys):
        from repro.cli import main

        code = main([
            "run", "usemem-scenario",
            "--scale", "0.08",
            "--seed", "5",
            "--nodes", "3",
            "--policy", "greedy",
            "--contended",
            "--fail", "node2@6",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Per-node breakdown" in out
        assert "max depth" in out
        assert "1 node failure(s)" in out

    def test_cluster_flags_require_nodes(self, capsys):
        from repro.cli import main

        code = main([
            "run", "usemem-scenario", "--contended", "--policy", "greedy",
        ])
        assert code == 2

    def test_bad_fail_spec_rejected(self, capsys):
        from repro.cli import main

        code = main([
            "run", "usemem-scenario", "--nodes", "2",
            "--policy", "greedy", "--fail", "garbage",
        ])
        assert code == 2

    def test_new_families_listed(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("contended", "failover", "migrate", "spill-feedback"):
            assert name in out
