"""File-backed scans and the cleancache path in end-to-end scenarios.

The ``filescan`` workload reads a file set through the page cache;
evicted *clean* pages spill into an ephemeral cleancache tmem pool, and
its counters surface as ``VmResult.cleancache``.  The key contracts:
the engines stay equivalent on the cleancache path, anonymous-only VMs
(and therefore all historical results) serialize byte-identically
without a ``cleancache`` key, and round trips preserve fingerprints.
"""

import pytest

from repro.config import GuestConfig, SimulationConfig
from repro.scenarios.results import ScenarioResult
from repro.scenarios.runner import run_scenario
from repro.scenarios.spec import ScenarioSpec, VMSpec, WorkloadSpec
from repro.units import SCENARIO_UNITS
from repro.workloads.filescan import FileScanWorkload
from repro.workloads.registry import WORKLOAD_REGISTRY


def filescan_spec() -> ScenarioSpec:
    return ScenarioSpec(
        name="filescan-test",
        description="file-backed scan next to an anonymous workload",
        tmem_mb=128,
        vms=(
            VMSpec(
                name="filer",
                ram_mb=64,
                jobs=(
                    WorkloadSpec(
                        kind="filescan",
                        params={"file_mb": 96, "passes": 2},
                    ),
                ),
            ),
            VMSpec(
                name="anon",
                ram_mb=64,
                jobs=(
                    WorkloadSpec(
                        kind="usemem",
                        params={"start_mb": 32, "max_mb": 96,
                                "increment_mb": 32},
                    ),
                ),
            ),
        ),
    )


def run(spec, engine_kind, policy="smart-alloc"):
    config = SimulationConfig(
        units=SCENARIO_UNITS,
        guest=GuestConfig(access_engine=engine_kind),
    )
    return run_scenario(spec, policy, config=config, seed=2019)


class TestCleancacheCounters:
    def test_registered_and_flagged(self):
        assert WORKLOAD_REGISTRY["filescan"] is FileScanWorkload
        assert FileScanWorkload.uses_cleancache is True

    def test_filescan_vm_reports_cleancache(self):
        result = run(filescan_spec(), "batched")
        counters = result.vm("filer").cleancache
        assert counters is not None
        for key in ("puts", "hits", "misses", "invalidates"):
            assert key in counters
        # The scan actually exercised the pool.
        assert counters["puts"] > 0
        assert counters["hits"] + counters["misses"] > 0

    def test_anon_vm_has_no_cleancache(self):
        result = run(filescan_spec(), "batched")
        assert result.vm("anon").cleancache is None

    def test_frontswap_only_results_have_no_cleancache_key(self):
        spec = ScenarioSpec(
            name="anon-only",
            description="",
            tmem_mb=64,
            vms=(
                VMSpec(
                    name="VM1",
                    ram_mb=64,
                    jobs=(
                        WorkloadSpec(
                            kind="usemem",
                            params={"start_mb": 32, "max_mb": 96,
                                    "increment_mb": 32},
                        ),
                    ),
                ),
            ),
        )
        result = run(spec, "batched")
        data = result.to_dict()
        # Historical serialized results predate the cleancache counters;
        # anonymous-only runs must keep their byte-identical form.
        assert "cleancache" not in data["vms"]["VM1"]


class TestEngineEquivalence:
    def test_scalar_and_batched_identical(self):
        scalar = run(filescan_spec(), "scalar")
        batched = run(filescan_spec(), "batched")
        assert scalar.fingerprint() == batched.fingerprint()
        assert scalar.vm("filer").cleancache == batched.vm("filer").cleancache

    @pytest.mark.parametrize("policy", ["greedy", "no-tmem"])
    def test_other_policies_run_clean(self, policy):
        result = run(filescan_spec(), "batched", policy=policy)
        assert result.vm("filer").runs, "the scan must complete at least one run"


class TestSerialization:
    def test_round_trip_preserves_fingerprint(self):
        result = run(filescan_spec(), "batched")
        clone = ScenarioResult.from_dict(result.to_dict())
        assert clone.fingerprint() == result.fingerprint()
        assert clone.vm("filer").cleancache == result.vm("filer").cleancache

    def test_round_trip_without_cleancache(self):
        result = run(filescan_spec(), "batched")
        data = result.to_dict()
        del data["vms"]["filer"]["cleancache"]
        clone = ScenarioResult.from_dict(data)
        assert clone.vm("filer").cleancache is None


class TestDeterminism:
    def test_same_seed_same_fingerprint(self):
        first = run(filescan_spec(), "batched")
        second = run(filescan_spec(), "batched")
        assert first.fingerprint() == second.fingerprint()

    def test_seed_changes_the_run(self):
        config = SimulationConfig(units=SCENARIO_UNITS)
        first = run_scenario(filescan_spec(), "smart-alloc", config=config,
                             seed=1)
        second = run_scenario(filescan_spec(), "smart-alloc", config=config,
                              seed=2)
        assert first.fingerprint() != second.fingerprint()
