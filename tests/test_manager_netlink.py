"""Tests for the Memory Manager, netlink channels and privileged TKM."""

import gc
import weakref

import pytest

from repro.channels.netlink import NetlinkChannel
from repro.config import SimulationConfig
from repro.core.manager import MemoryManager
from repro.core.policies import GreedyPolicy, SmartAllocPolicy, StaticAllocPolicy
from repro.core.policy import PolicyDecision
from repro.core.stats import TargetVector
from repro.errors import PolicyError
from repro.guest.tkm import PrivilegedTkm, TmemKernelModule
from repro.hypervisor.pages import PageKey
from repro.hypervisor.xen import Hypervisor
from repro.scenarios.registry import scenario_by_name
from repro.scenarios.runner import ScenarioRunner
from repro.sim.engine import SimulationEngine


class TestNetlinkChannel:
    def test_zero_latency_delivers_immediately(self):
        engine = SimulationEngine()
        channel = NetlinkChannel(engine, latency_s=0.0)
        received = []
        channel.subscribe(received.append)
        channel.send("hello", {"x": 1})
        assert len(received) == 1
        assert received[0].payload == {"x": 1}

    def test_latency_defers_delivery_until_engine_runs(self):
        engine = SimulationEngine()
        channel = NetlinkChannel(engine, latency_s=0.5)
        received = []
        channel.subscribe(received.append)
        channel.send("stats", 42)
        assert received == []
        engine.run()
        assert len(received) == 1
        assert engine.now == pytest.approx(0.5)

    def test_history_filters_by_kind(self):
        engine = SimulationEngine()
        channel = NetlinkChannel(engine)
        channel.send("a", 1)
        channel.send("b", 2)
        channel.send("a", 3)
        assert channel.messages_sent == 3

    def test_delivery_is_fifo_to_every_subscriber(self):
        engine = SimulationEngine()
        channel = NetlinkChannel(engine, latency_s=0.5)
        first, second = [], []
        channel.subscribe(first.append)
        channel.subscribe(second.append)
        for payload in range(3):
            channel.send("stats", payload)
        engine.run()
        assert [message.payload for message in first] == [0, 1, 2]
        assert [message.payload for message in second] == [0, 1, 2]


def build_stack(policy, tmem_pages=100, vm_count=2):
    """Full control-plane stack: hypervisor + TKM + netlink + MM."""
    engine = SimulationEngine()
    config = SimulationConfig()
    hv = Hypervisor(engine, config, host_memory_pages=4096, tmem_pool_pages=tmem_pages)
    records = []
    for i in range(vm_count):
        record = hv.create_domain(f"vm{i+1}", ram_pages=128)
        hv.register_tmem_client(record.vm_id)
        records.append(record)
    stats_ch = NetlinkChannel(engine, latency_s=config.sampling.relay_latency_s)
    target_ch = NetlinkChannel(engine, latency_s=config.sampling.writeback_latency_s)
    tkm = PrivilegedTkm(hv, stats_channel=stats_ch, target_channel=target_ch)
    manager = MemoryManager(policy, stats_channel=stats_ch, target_channel=target_ch)
    return engine, hv, records, tkm, manager


class TestPrivilegedTkm:
    def test_relays_snapshots_to_user_space(self):
        engine, hv, records, tkm, manager = build_stack(StaticAllocPolicy())
        hv.start()
        engine.run(until=3.1)
        assert tkm.stats.snapshots_relayed == 3
        assert manager.stats.snapshots_received == 3

    def test_targets_travel_back_to_the_hypervisor(self):
        engine, hv, records, tkm, manager = build_stack(StaticAllocPolicy())
        hv.start()
        engine.run(until=2.0)
        # static-alloc divides 100 pages over 2 VMs.
        for record in records:
            assert hv.accounting.account(record.vm_id).mm_target == 50
        assert tkm.stats.target_updates_applied >= 1

    def test_greedy_policy_never_sends_targets(self):
        engine, hv, records, tkm, manager = build_stack(GreedyPolicy())
        hv.start()
        engine.run(until=5.0)
        assert tkm.stats.target_updates_applied == 0
        for record in records:
            assert not hv.accounting.account(record.vm_id).has_target


class TestMemoryManager:
    def test_process_snapshot_directly(self):
        engine, hv, records, tkm, manager = build_stack(StaticAllocPolicy())
        snapshot = hv.sampler.sample_now()
        decision = manager.process_snapshot(snapshot)
        assert decision.changed
        assert decision.targets.total() == 100

    def test_the_policy_reads_the_snapshot_the_sampler_built(self):
        policy = StaticAllocPolicy()
        engine, hv, records, tkm, manager = build_stack(policy)
        taken, read = [], []
        hv.sampler.subscribe(taken.append)
        decide = policy.decide
        policy.decide = lambda memstats: read.append(memstats) or decide(memstats)
        hv.start()
        engine.run(until=3.1)
        assert len(read) == len(taken) == 3
        assert all(seen is sent for seen, sent in zip(read, taken))

    def test_counts_every_snapshot_and_decision(self):
        engine, hv, records, tkm, manager = build_stack(SmartAllocPolicy(percent=2))
        hv.start()
        # Run slightly past the 4th sampling instant so the netlink relay
        # latency does not hide the final snapshot from the MM.
        engine.run(until=4.5)
        assert hv.sampler.snapshots == tkm.stats.snapshots_relayed == 4
        assert manager.stats.snapshots_received == 4
        assert manager.stats.decisions_made == 4

    def test_passive_policy_is_never_asked_to_decide(self):
        engine, hv, records, tkm, manager = build_stack(GreedyPolicy())
        hv.start()
        engine.run(until=3.5)
        assert manager.stats.snapshots_received == 3
        assert manager.stats.decisions_made == 0
        assert manager.stats.target_updates_sent == 0

    def test_duplicate_targets_suppressed(self):
        """send_to_hypervisor only transmits when the targets changed."""
        engine, hv, records, tkm, manager = build_stack(StaticAllocPolicy())
        hv.start()
        engine.run(until=5.0)
        assert manager.stats.target_updates_sent == 1

    def test_an_over_committing_vector_is_refused(self):
        """The MM is the one gate: policies do not check their own vectors."""

        class OverCommit(StaticAllocPolicy):
            def decide(self, memstats):
                return PolicyDecision.set_targets(
                    TargetVector({vm_id: memstats.total_tmem for vm_id in memstats.vm_ids()})
                )

        engine, hv, records, tkm, manager = build_stack(OverCommit())
        with pytest.raises(PolicyError, match="over-committed the pool: 200 > 100"):
            manager.process_snapshot(hv.sampler.record())

    def test_smart_alloc_reacts_to_failed_puts_through_the_full_stack(self):
        engine, hv, records, tkm, manager = build_stack(
            SmartAllocPolicy(percent=10), tmem_pages=100
        )
        vm = records[0]
        hv.start()
        # Give the MM one quiet interval so it installs zero targets, then
        # generate puts that fail against the zero target.
        engine.run(until=1.2)
        for i in range(10):
            hv.backend.put(vm.vm_id, vm.frontswap_pool_id, PageKey(0, 0, i),
                           version=1, now=engine.now)
        engine.run(until=2.5)
        target = hv.accounting.account(vm.vm_id).mm_target
        assert target >= 10  # grew by P% of the pool after the failed puts


class TestControlPlaneMemory:
    @pytest.mark.parametrize("spec", ["many-vms:n=4", "cluster:nodes=2"])
    def test_a_run_keeps_no_per_tick_statistics(self, spec):
        """A snapshot lives only until the policy has read it.

        Neither the sampler, the netlink channel, the TKM nor the MM keeps
        per-tick history.  A node's closing sample is recorded after the
        run ended and reaches no listener.
        """
        runner = ScenarioRunner(scenario_by_name(spec, scale=0.05), "smart-alloc:P=2")
        refs = {node.name: [] for node in runner.nodes}
        for node in runner.nodes:
            node.hypervisor.sampler.subscribe(
                lambda snapshot, seen=refs[node.name]: seen.append(weakref.ref(snapshot))
            )
        result = runner.run()
        taken = sum(len(seen) for seen in refs.values())
        assert result.snapshots == taken + len(runner.nodes)
        assert taken > 20
        gc.collect()
        for seen in refs.values():
            assert all(ref() is None for ref in seen)

    def test_the_closing_sample_is_recorded_not_relayed(self):
        """The closing sample extends the traces to the end of the run and
        counts as a snapshot, but leaves no netlink delivery pending."""
        runner = ScenarioRunner(
            scenario_by_name("many-vms:n=4", scale=0.1), "smart-alloc:P=2"
        )
        result = runner.run()
        (node,) = runner.nodes
        relayed = node.privileged_tkm.stats.snapshots_relayed
        assert relayed == node.manager.stats.snapshots_received == 44
        assert result.snapshots == relayed + 1
        assert runner.engine.pending_events == 0
        assert result.trace.get("tmem_free").times[-1] == result.simulated_duration_s

    @pytest.mark.parametrize("policy", ["static-alloc", "reconf-static"])
    def test_every_cluster_node_relays_what_its_manager_receives(self, policy):
        runner = ScenarioRunner(scenario_by_name("cluster:nodes=2", scale=0.1), policy)
        result = runner.run()
        assert len(runner.nodes) == 2
        for node in runner.nodes:
            relayed = node.privileged_tkm.stats.snapshots_relayed
            assert relayed == node.manager.stats.snapshots_received > 0
        assert result.snapshots == sum(
            node.manager.stats.snapshots_received + 1 for node in runner.nodes
        )
        assert runner.engine.pending_events == 0


class TestGuestTkm:
    def test_module_init_creates_frontswap_pool(self, engine, config):
        hv = Hypervisor(engine, config, host_memory_pages=1024, tmem_pool_pages=64)
        record = hv.create_domain("vm", ram_pages=128)
        tkm = TmemKernelModule(hv, record.vm_id)
        assert tkm.frontswap is not None
        assert tkm.cleancache is None
        stored, _ = tkm.frontswap.store(1, now=0.0)
        assert stored

    def test_module_init_with_cleancache(self, engine, config):
        hv = Hypervisor(engine, config, host_memory_pages=1024, tmem_pool_pages=64)
        record = hv.create_domain("vm", ram_pages=128)
        tkm = TmemKernelModule(hv, record.vm_id, enable_cleancache=True)
        assert tkm.cleancache is not None
        ok, _ = tkm.cleancache.put_page(3, now=0.0)
        assert ok

    def test_hypercall_stats_exposed(self, engine, config):
        hv = Hypervisor(engine, config, host_memory_pages=1024, tmem_pool_pages=64)
        record = hv.create_domain("vm", ram_pages=128)
        tkm = TmemKernelModule(hv, record.vm_id)
        tkm.frontswap.store(1, now=0.0)
        assert tkm.hypercall_stats.total_calls == 1
