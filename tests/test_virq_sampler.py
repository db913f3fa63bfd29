"""Tests for the statistics sampler (VIRQ) and hypercall interface."""

import pytest

from repro.config import SimulationConfig
from repro.errors import HypercallError
from repro.hypervisor.pages import PageKey
from repro.hypervisor.xen import Hypervisor
from repro.sim.engine import SimulationEngine


def build_node(tmem_pages=64, vm_count=2):
    engine = SimulationEngine()
    config = SimulationConfig()
    hv = Hypervisor(engine, config, host_memory_pages=4096, tmem_pool_pages=tmem_pages)
    records = []
    for i in range(vm_count):
        record = hv.create_domain(f"vm{i+1}", ram_pages=256)
        hv.register_tmem_client(record.vm_id)
        records.append(record)
    return engine, hv, records


class TestSampler:
    def test_sampler_fires_every_interval(self):
        engine, hv, _ = build_node()
        received = []
        hv.sampler.subscribe(received.append)
        hv.start()
        engine.run(until=5.5)
        assert hv.sampler.snapshots == 5
        times = [snap.time for snap in received]
        assert times == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_snapshot_contains_every_registered_vm(self):
        engine, hv, records = build_node(vm_count=3)
        received = []
        hv.sampler.subscribe(received.append)
        hv.start()
        engine.run(until=1.0)
        snap = received[0]
        assert snap.vm_count == 3
        assert {s.vm_id for s in snap.vms} == {r.vm_id for r in records}

    def test_interval_counters_reset_after_snapshot(self):
        engine, hv, records = build_node()
        vm = records[0]
        received = []
        hv.sampler.subscribe(received.append)
        hv.start()
        hv.backend.put(vm.vm_id, vm.frontswap_pool_id, PageKey(0, 0, 1), version=1, now=0.0)
        engine.run(until=1.0)
        first = received[0].vm(vm.vm_id)
        assert first.puts_total == 1
        engine.run(until=2.0)
        second = received[1].vm(vm.vm_id)
        assert second.puts_total == 0          # per-interval counter was reset
        assert second.tmem_used == 1           # usage carries over

    def test_snapshot_reports_free_and_total_tmem(self):
        engine, hv, records = build_node(tmem_pages=10)
        vm = records[0]
        hv.backend.put(vm.vm_id, vm.frontswap_pool_id, PageKey(0, 0, 1), version=1, now=0.0)
        snap = hv.sampler.sample_now()
        assert snap.total_tmem == 10
        assert snap.free_tmem == 9

    def test_trace_records_tmem_usage_per_vm(self):
        engine, hv, records = build_node()
        vm = records[0]
        hv.start()
        hv.backend.put(vm.vm_id, vm.frontswap_pool_id, PageKey(0, 0, 1), version=1, now=0.0)
        engine.run(until=2.0)
        series = hv.trace.get(f"tmem_used/vm{vm.vm_id}")
        assert series.values.tolist() == [1.0, 1.0]

    def test_listeners_receive_snapshots(self):
        engine, hv, _ = build_node()
        received = []
        hv.sampler.subscribe(received.append)
        hv.start()
        engine.run(until=3.0)
        assert len(received) == 3

    def test_record_reaches_no_listener(self):
        """record() takes, traces and counts a snapshot without raising
        the VIRQ; sample_now() is record() plus the listeners."""
        engine, hv, records = build_node()
        received = []
        hv.sampler.subscribe(received.append)
        recorded = hv.sampler.record()
        assert received == []
        assert hv.sampler.snapshots == 1
        assert recorded.vm_count == len(records)
        assert hv.trace.get("tmem_free").values.tolist() == [64.0]
        raised = hv.sampler.sample_now()
        assert received == [raised]
        assert hv.sampler.snapshots == 2

    def test_stop_cancels_future_samples(self):
        engine, hv, _ = build_node()
        hv.start()
        engine.run(until=2.0)
        hv.stop()
        engine.run(until=10.0)
        assert hv.sampler.snapshots == 2

    def test_snapshot_vm_lookup_unknown_raises(self):
        engine, hv, _ = build_node()
        snap = hv.sampler.sample_now()
        with pytest.raises(KeyError):
            snap.vm(999)


class TestHypercallInterface:
    def test_unregistered_domain_rejected(self):
        engine, hv, _ = build_node()
        with pytest.raises(HypercallError):
            hv.hypercalls.tmem_put(42, 0, PageKey(0, 0, 0), version=1, now=0.0)

    def test_put_returns_latency(self):
        engine, hv, records = build_node()
        vm = records[0]
        result, latency = hv.hypercalls.tmem_put(
            vm.vm_id, vm.frontswap_pool_id, PageKey(0, 0, 0), version=1, now=0.0
        )
        assert result.succeeded
        assert latency == pytest.approx(hv.config.tmem_put_latency_s)

    def test_failed_put_charges_only_hypercall_cost(self):
        engine, hv, records = build_node(tmem_pages=1)
        vm = records[0]
        hv.hypercalls.tmem_put(vm.vm_id, vm.frontswap_pool_id, PageKey(0, 0, 0), version=1, now=0.0)
        result, latency = hv.hypercalls.tmem_put(
            vm.vm_id, vm.frontswap_pool_id, PageKey(0, 0, 1), version=1, now=0.0
        )
        assert not result.succeeded
        assert latency == pytest.approx(hv.config.tmem_failed_put_latency_s)

    def test_set_targets_installs_targets(self):
        engine, hv, records = build_node()
        hv.hypercalls.register_domain(Hypervisor.PRIVILEGED_DOMAIN_ID)
        targets = {records[0].vm_id: 5, records[1].vm_id: 7}
        hv.hypercalls.tmem_set_targets(Hypervisor.PRIVILEGED_DOMAIN_ID, targets)
        assert hv.accounting.account(records[0].vm_id).mm_target == 5
        assert hv.accounting.account(records[1].vm_id).mm_target == 7

    def test_set_targets_skips_a_vm_that_left_the_node(self):
        """A target vector computed before a VM left the node (a planned
        migration tears it down here) still applies the other targets."""
        engine, hv, records = build_node()
        hv.hypercalls.register_domain(Hypervisor.PRIVILEGED_DOMAIN_ID)
        gone = records[1].vm_id
        hv.destroy_domain(gone)
        targets = {records[0].vm_id: 5, gone: 7}
        hv.hypercalls.tmem_set_targets(Hypervisor.PRIVILEGED_DOMAIN_ID, targets)
        assert hv.accounting.account(records[0].vm_id).mm_target == 5
        assert hv.accounting.maybe_account(gone) is None
        # A direct caller still gets the strict check.
        with pytest.raises(HypercallError, match="not registered with tmem"):
            hv.accounting.set_target(gone, 7)

    def test_hypercall_stats_accumulate(self):
        engine, hv, records = build_node()
        vm = records[0]
        hv.hypercalls.tmem_put(vm.vm_id, vm.frontswap_pool_id, PageKey(0, 0, 0), version=1, now=0.0)
        hv.hypercalls.tmem_get(vm.vm_id, vm.frontswap_pool_id, PageKey(0, 0, 0))
        stats = hv.hypercalls.stats_for(vm.vm_id)
        assert stats.calls == {"put": 1, "get": 1}
        assert stats.total_calls == 2
        assert stats.total_latency_s > 0

    def test_double_registration_rejected(self):
        engine, hv, records = build_node()
        with pytest.raises(HypercallError):
            hv.hypercalls.register_domain(records[0].vm_id)
