"""Scenario registry, parametric families and the unified workload registry."""

import pytest

from repro.errors import ScenarioError
from repro.scenarios import (
    PAPER_POLICIES,
    all_scenarios,
    available_scenarios,
    bursty_scenario,
    churn_scenario,
    many_vms_scenario,
    register_scenario,
    run_scenario,
    scenario_by_name,
)
from repro.scenarios.registry import (
    paper_scenario_names,
    parse_scenario_spec,
    registered_scenarios,
)
from repro.scenarios.spec import ScenarioSpec, VMSpec, WorkloadSpec

FAMILY_SPECS = ("many-vms:n=4", "churn:n=4", "bursty:spikes=2")


class TestParseScenarioSpec:
    def test_bare_name(self):
        assert parse_scenario_spec("scenario-1") == ("scenario-1", {})

    def test_parameters(self):
        name, kwargs = parse_scenario_spec("many-vms:n=8,ram_mb=256")
        assert name == "many-vms"
        assert kwargs == {"n": 8, "ram_mb": 256}
        assert isinstance(kwargs["n"], int)

    def test_keys_are_case_insensitive(self):
        assert parse_scenario_spec("many-vms:N=8")[1] == {"n": 8}

    def test_float_values(self):
        assert parse_scenario_spec("churn:wave_s=12.5")[1] == {"wave_s": 12.5}

    def test_malformed_rejected(self):
        with pytest.raises(ScenarioError):
            parse_scenario_spec("many-vms:n")
        with pytest.raises(ScenarioError):
            parse_scenario_spec("many-vms:n=lots")


class TestRegistry:
    def test_paper_scenarios_unchanged(self):
        assert set(all_scenarios()) == {
            "scenario-1", "scenario-2", "usemem-scenario", "scenario-3",
        }
        assert paper_scenario_names() == (
            "scenario-1", "scenario-2", "usemem-scenario", "scenario-3",
        )

    def test_families_are_registered(self):
        names = available_scenarios()
        for family in ("many-vms", "churn", "bursty"):
            assert family in names
        assert registered_scenarios()["many-vms"].valid_keys() == ("n", "ram_mb")

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ScenarioError):
            scenario_by_name("scenario-9")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ScenarioError):
            scenario_by_name("many-vms:warp=9")

    def test_register_rejects_duplicates_and_bad_names(self):
        with pytest.raises(ScenarioError):
            register_scenario("many-vms")(lambda **kw: None)
        with pytest.raises(ScenarioError):
            register_scenario("bad:name")(lambda **kw: None)

    def test_user_registration_is_selectable(self):
        name = "registry-test-family"
        assert name not in available_scenarios()

        @register_scenario(name)
        def tiny(*, scale: float = 1.0, n: int = 1) -> ScenarioSpec:
            vms = tuple(
                VMSpec(
                    name=f"VM{i}",
                    ram_mb=max(1, int(128 * scale)),
                    jobs=(WorkloadSpec(kind="usemem", start_at=0.0),),
                )
                for i in range(1, int(n) + 1)
            )
            return ScenarioSpec(
                name=name, description="test", vms=vms,
                tmem_mb=max(1, int(64 * scale)),
            )

        try:
            assert name in available_scenarios()
            spec = scenario_by_name(f"{name}:n=2", scale=0.5)
            assert len(spec.vms) == 2
        finally:
            from repro.scenarios import registry as _registry

            _registry._REGISTRY.pop(name, None)


class TestFamilies:
    def test_many_vms_scales_in_vm_count(self):
        spec = many_vms_scenario(scale=0.25, n=8)
        assert len(spec.vms) == 8
        assert spec.name == "many-vms:n=8,ram_mb=512"

    def test_family_names_distinguish_configurations(self):
        assert (
            churn_scenario(n=4, wave_s=5).name
            != churn_scenario(n=4).name
        )
        assert (
            bursty_scenario(spike_mb=256).name
            != bursty_scenario().name
        )

    def test_churn_waves_stagger_starts(self):
        spec = churn_scenario(scale=0.25, n=6, wave_s=30.0, per_wave=2)
        starts = [vm.jobs[0].start_at for vm in spec.vms]
        assert starts == [0.0, 0.0, 30.0, 30.0, 60.0, 60.0]

    def test_bursty_spikes_are_phase_triggered(self):
        spec = bursty_scenario(scale=0.25, spikes=2)
        assert len(spec.phase_triggers) == 2
        for k, trigger in enumerate(spec.phase_triggers, start=1):
            assert trigger.watch_vm == "VM1"
            assert trigger.start_vm == f"SPIKE{k}"
            assert trigger.phase_prefix == f"pagerank-{2 * k}"
        # Spike VMs must not auto-start.
        for vm in spec.vms:
            if vm.name.startswith("SPIKE"):
                assert vm.jobs[0].start_at is None

    def test_family_validation(self):
        with pytest.raises(ScenarioError):
            many_vms_scenario(n=0)
        with pytest.raises(ScenarioError):
            churn_scenario(per_wave=0)
        with pytest.raises(ScenarioError):
            bursty_scenario(spikes=4)
        for factory in (many_vms_scenario, churn_scenario, bursty_scenario):
            with pytest.raises(ScenarioError):
                factory(scale=0)

    @pytest.mark.parametrize("scale", [0.0, -1.0, float("nan"), float("inf")])
    def test_every_factory_rejects_a_bad_scale(self, scale):
        """One rule for every paper scenario and family: finite and > 0."""
        factories = [
            entry.factory for entry in registered_scenarios().values()
            if entry.factory.__module__
            in ("repro.scenarios.library", "repro.scenarios.families")
        ]
        assert len(factories) >= 15
        for factory in factories:
            with pytest.raises(ScenarioError, match="scale must be finite"):
                factory(scale=scale)
        with pytest.raises(ScenarioError, match="scale must be finite"):
            scenario_by_name("many-vms:n=2", scale=scale)

    @pytest.mark.parametrize("family_spec", FAMILY_SPECS)
    @pytest.mark.parametrize("policy", PAPER_POLICIES)
    def test_families_run_under_every_paper_policy(self, family_spec, policy):
        """Acceptance: every family completes under every paper policy."""
        spec = scenario_by_name(family_spec, scale=0.08)
        result = run_scenario(spec, policy, seed=11)
        assert result.mean_runtime_s() > 0
        assert all(vm.runs for vm in result.vms.values())


class TestWorkloadRegistry:
    def test_registration_is_visible_everywhere(self):
        from repro.workloads import (
            UsememWorkload,
            available_workload_kinds,
            register_workload_kind,
        )
        from repro.workloads.registry import WORKLOAD_REGISTRY, workload_class

        kind = "registry-test-workload"

        class MyWorkload(UsememWorkload):
            name = kind

        register_workload_kind(kind, MyWorkload)
        try:
            assert kind in available_workload_kinds()
            assert workload_class(kind) is MyWorkload
        finally:
            del WORKLOAD_REGISTRY[kind]

    def test_workload_kinds_policies_and_coordinators_share_one_registry(self):
        from repro.core.coordinator import COORDINATORS
        from repro.core.policy import POLICIES
        from repro.params import SpecRegistry
        from repro.workloads import UsememWorkload, register_workload_kind
        from repro.workloads.registry import WORKLOAD_REGISTRY, WORKLOADS

        assert WORKLOAD_REGISTRY is WORKLOADS.classes
        for registry in (WORKLOADS, POLICIES, COORDINATORS):
            assert type(registry) is SpecRegistry

        kind = "registry-test-bounded"

        class Bounded(UsememWorkload):
            pass

        register_workload_kind(kind, Bounded, bounds={"steady_sweeps": "[0, 4]"})
        try:
            assert WORKLOADS.errors(kind, {"steady_sweeps": 5}) == [
                ("steady_sweeps", "expected a value in [0, 4], got 5")
            ]
        finally:
            del WORKLOAD_REGISTRY[kind]

    def test_non_workload_rejected(self):
        from repro.workloads import register_workload_kind

        with pytest.raises(ScenarioError):
            register_workload_kind("bogus", dict)

    def test_unknown_kind_has_helpful_error(self):
        from repro.workloads.registry import workload_class

        with pytest.raises(ScenarioError, match="unknown workload kind"):
            workload_class("no-such-kind")
