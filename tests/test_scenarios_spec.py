"""Tests for scenario specifications and the scenario library (Table II)."""

import pytest

from repro.errors import ScenarioError
from repro.scenarios.library import (
    PAPER_POLICIES,
    all_scenarios,
    scenario_1,
    scenario_2,
    scenario_3,
    scenario_by_name,
    usemem_scenario,
)
from repro.scenarios.spec import PhaseTrigger, ScenarioSpec, VMSpec, WorkloadSpec
from repro.units import SCENARIO_UNITS


class TestSpecValidation:
    def test_vm_spec_rejects_bad_values(self):
        with pytest.raises(ScenarioError):
            VMSpec(name="", ram_mb=512)
        with pytest.raises(ScenarioError):
            VMSpec(name="v", ram_mb=0)
        with pytest.raises(ScenarioError):
            VMSpec(name="v", ram_mb=512, vcpus=0)
        with pytest.raises(ScenarioError):
            VMSpec(name="v", ram_mb=512, swap_mb=0)

    def test_workload_spec_rejects_negative_times(self):
        with pytest.raises(ScenarioError):
            WorkloadSpec(kind="usemem", start_at=-1)
        with pytest.raises(ScenarioError):
            WorkloadSpec(kind="usemem", delay_after_previous=-1)

    def test_scenario_requires_vms(self):
        with pytest.raises(ScenarioError):
            ScenarioSpec(name="s", description="", vms=(), tmem_mb=100)

    def test_duplicate_vm_names_rejected(self):
        vm = VMSpec(name="VM1", ram_mb=256)
        with pytest.raises(ScenarioError):
            ScenarioSpec(name="s", description="", vms=(vm, vm), tmem_mb=100)

    def test_host_memory_must_hold_vms_and_tmem(self):
        vm = VMSpec(name="VM1", ram_mb=1024)
        spec = ScenarioSpec(name="s", description="", vms=(vm,), tmem_mb=1024,
                            host_memory_mb=1024)
        with pytest.raises(ScenarioError):
            spec.effective_host_memory_mb()

    def test_default_host_memory_has_headroom(self):
        vm = VMSpec(name="VM1", ram_mb=1024)
        spec = ScenarioSpec(name="s", description="", vms=(vm,), tmem_mb=512)
        assert spec.effective_host_memory_mb() >= 1024 + 512

    def test_vm_lookup(self):
        spec = scenario_1()
        assert spec.vm("VM2").ram_mb == 1024
        with pytest.raises(ScenarioError):
            spec.vm("VM9")

    def test_ram_pages_uses_units(self):
        vm = VMSpec(name="VM1", ram_mb=1024)
        assert vm.ram_pages(SCENARIO_UNITS) == 4096

    def test_phase_trigger_matching(self):
        trigger = PhaseTrigger(watch_vm="VM1", phase_prefix="alloc-640MB",
                               start_vm="VM3")
        assert trigger.matches("VM1", "alloc-640MB")
        assert not trigger.matches("VM2", "alloc-640MB")
        assert not trigger.matches("VM1", "alloc-512MB")

    def test_with_overrides(self):
        spec = scenario_1().with_overrides(tmem_mb=512)
        assert spec.tmem_mb == 512


class TestPaperScenarios:
    def test_all_scenarios_present(self):
        names = set(all_scenarios())
        assert names == {"scenario-1", "scenario-2", "usemem-scenario", "scenario-3"}

    def test_scenario_by_name_unknown_rejected(self):
        with pytest.raises(ScenarioError):
            scenario_by_name("scenario-9")

    def test_every_scenario_deploys_three_vms(self):
        """Table II: in all cases, we deploy 3 VMs."""
        for spec in all_scenarios().values():
            assert len(spec.vms) == 3

    def test_scenario_1_matches_table2(self):
        spec = scenario_1()
        assert spec.tmem_mb == 1024
        for vm in spec.vms:
            assert vm.ram_mb == 1024 and vm.vcpus == 1
            assert len(vm.jobs) == 2                      # run twice
            assert vm.jobs[1].delay_after_previous == 5.0  # 5 s sleep
            assert all(j.kind == "in-memory-analytics" for j in vm.jobs)

    def test_scenario_2_matches_table2(self):
        spec = scenario_2()
        assert spec.tmem_mb == 1024
        for vm in spec.vms:
            assert vm.ram_mb == 512
            assert vm.jobs[0].kind == "graph-analytics"
        assert spec.vm("VM1").jobs[0].start_at == 0.0
        assert spec.vm("VM3").jobs[0].start_at == 30.0     # 30 s stagger

    def test_usemem_scenario_matches_table2(self):
        spec = usemem_scenario()
        assert spec.tmem_mb == 384                         # only 384 MB enabled
        for vm in spec.vms:
            assert vm.ram_mb == 512
            assert vm.jobs[0].kind == "usemem"
        # VM3 is started by a trigger on VM1's 640 MB allocation...
        assert spec.phase_triggers
        trigger = spec.phase_triggers[0]
        assert trigger.start_vm == "VM3"
        assert "640" in trigger.phase_prefix
        # ...and everything stops when VM3 reaches 768 MB.
        assert spec.stop_trigger is not None
        assert spec.stop_trigger.watch_vm == "VM3"
        assert "768" in spec.stop_trigger.phase_prefix

    def test_scenario_3_matches_table2(self):
        spec = scenario_3()
        assert spec.vm("VM1").ram_mb == 512
        assert spec.vm("VM2").ram_mb == 512
        assert spec.vm("VM3").ram_mb == 1024
        assert spec.vm("VM3").jobs[0].kind == "in-memory-analytics"
        assert spec.vm("VM3").jobs[0].start_at == 30.0

    def test_scale_shrinks_sizes_proportionally(self):
        full = scenario_1(scale=1.0)
        half = scenario_1(scale=0.5)
        assert half.tmem_mb == full.tmem_mb // 2
        assert half.vm("VM1").ram_mb == full.vm("VM1").ram_mb // 2

    def test_scale_must_be_positive(self):
        for factory in (scenario_1, scenario_2, scenario_3, usemem_scenario):
            with pytest.raises(ScenarioError):
                factory(scale=0)

    def test_workloads_overcommit_vm_ram(self):
        """Every scenario must create memory pressure (Section IV)."""
        from repro.sim.rng import RngFactory
        from repro.workloads.registry import workload_class

        for spec in all_scenarios().values():
            for vm in spec.vms:
                for job in vm.jobs:
                    cls = workload_class(job.kind)
                    workload = cls(
                        units=SCENARIO_UNITS,
                        rng=RngFactory(0).stream("check"),
                        **dict(job.params),
                    )
                    assert workload.peak_footprint_pages() > vm.ram_pages(SCENARIO_UNITS)

    def test_paper_policy_list_contains_all_families(self):
        assert "greedy" in PAPER_POLICIES
        assert "no-tmem" in PAPER_POLICIES
        assert any(p.startswith("smart-alloc") for p in PAPER_POLICIES)
        assert "static-alloc" in PAPER_POLICIES and "reconf-static" in PAPER_POLICIES

    def test_describe_is_serialisable(self):
        import json
        for spec in all_scenarios().values():
            json.dumps(spec.describe())
