"""Tests for the deterministic fault-injection subsystem.

The load-bearing guarantees of the fault layer:

1. **Declarative and validated** — ``FaultPlan`` parses the CLI spec
   grammar, rejects malformed windows/options with the offending spec in
   the message, and topology construction cross-checks fault plans and
   migration schedules (no migrating a VM onto itself or onto a node
   that is down at that time).
2. **Deterministic chaos** — transient failures, rejoins, degraded and
   partitioned links, retries, backoff and circuit breakers are all
   driven by engine events and named RNG streams: the same (plan, seed)
   pair is bit-identical across repeated runs and across the serial and
   process execution backends.
3. **No-op plans are invisible** — zero-width windows and nominal
   degradation parameters follow the exact no-plan code path, byte for
   byte.
4. **The invariant checker is free** — enabling it cannot change a
   fingerprint, it passes on every healthy run (including mid-fault
   ones), and it raises a structured ``InvariantViolation`` the moment
   a conservation law actually breaks.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import clusterize
from repro.config import GuestConfig, SimulationConfig
from repro.cluster.epoch import epoch_fallback_reason
from repro.cluster.faults import (
    FaultPlan,
    LinkDegradation,
    NodeFault,
    parse_link_degradation,
    parse_node_fault,
)
from repro.cluster.sharded import ShardedClusterRunner, coupling_reason
from repro.errors import (
    ClusterError,
    FaultSpecError,
    InvariantViolation,
    ScenarioError,
)
from repro.scenarios.dsl import compile_file
from repro.scenarios.registry import scenario_by_name
from repro.scenarios.runner import ScenarioRunner, run_scenario
from repro.scenarios.spec import VmMigration
from repro.units import SCENARIO_UNITS

# The pinned acceptance scenario: transient vault failure with failback,
# one lossy/throttled link, one flapping partition.  Times are chosen so
# the whole fault choreography (fail -> breaker open -> heal -> breaker
# close -> rejoin -> failback) completes within the run.
FLAKY = "flaky:nodes=3,fail_at=8,down_s=6"
FAULTY = "faulty:nodes=3,fail_at=8,down_s=6"
PIN_SCALE = 0.1
PIN_SEED = 2019
REPO_ROOT = Path(__file__).resolve().parent.parent


def _plan(faults=(), degradations=()):
    """A fault plan from flag-grammar strings, parsed as the compiler does."""
    return FaultPlan(
        node_faults=tuple(parse_node_fault(spec) for spec in faults),
        link_faults=tuple(parse_link_degradation(spec) for spec in degradations),
    )


# --------------------------------------------------------------------------
# Spec parsing
# --------------------------------------------------------------------------
class TestSpecParsing:
    def test_node_fault_round_trip(self):
        fault = parse_node_fault("node2@10-25:failback=1")
        assert fault == NodeFault(
            node="node2", at_s=10.0, recover_at_s=25.0, failback=True
        )
        assert parse_node_fault("vault@3.5-3.5").width_s == 0.0

    def test_link_degradation_round_trip(self):
        deg = parse_link_degradation(
            "n1->n2@10-20:bw=0.1,loss=0.05,lat=0.002,partition=1"
        )
        assert deg == LinkDegradation(
            src="n1",
            dst="n2",
            start_s=10.0,
            end_s=20.0,
            bandwidth_factor=0.1,
            loss_probability=0.05,
            extra_latency_s=0.002,
            partition=True,
        )

    @pytest.mark.parametrize("bad", [
        "node2",                      # no window
        "@10-20",                     # no node
        "node2@20-10",                # reversed window
        "node2@ten-20",               # non-numeric
        "node2@10-20:explode=1",      # unknown option
        "node2@10-20:failback=maybe", # bad boolean
    ])
    def test_bad_node_fault_specs_rejected(self, bad):
        with pytest.raises(FaultSpecError):
            parse_node_fault(bad)

    @pytest.mark.parametrize("bad", [
        "n1-n2@10-20",                # no arrow
        "n1->n1@10-20",               # self-link
        "n1->n2@10-20:bw=0",          # zero bandwidth
        "n1->n2@10-20:bw=1.5",        # >1 bandwidth factor
        "n1->n2@10-20:loss=1",        # certain loss never delivers
        "n1->n2@10-20:widgets=3",     # unknown option
    ])
    def test_bad_degradation_specs_rejected(self, bad):
        with pytest.raises(FaultSpecError):
            parse_link_degradation(bad)

    @pytest.mark.parametrize("lat", ["nan", "inf", "-inf", "-0.5"])
    def test_latency_must_be_finite_and_non_negative(self, lat):
        spec = f"node1->node2@0.0-1000:lat={lat}"
        with pytest.raises(FaultSpecError, match="extra_latency_s must be finite"):
            parse_link_degradation(spec)

    def test_cli_rejects_non_finite_latency_up_front(self, capsys):
        from repro.cli import main

        code = main([
            "run", "contended:nodes=2", "--scale", "0.1", "--policy", "greedy",
            "--degrade", "node1->node2@0.0-1000:lat=nan",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "extra_latency_s must be finite and >= 0, got nan" in err
        assert "Traceback" not in err

    def test_fault_spec_error_is_a_cluster_error(self):
        assert issubclass(FaultSpecError, ClusterError)

    def test_overlapping_windows_rejected(self):
        with pytest.raises(FaultSpecError, match="overlap"):
            _plan(faults=["n2@5-15", "n2@10-20"])
        with pytest.raises(FaultSpecError, match="overlap"):
            _plan(
                degradations=["a->b@5-15:bw=0.5", "a->b@10-20:bw=0.5"]
            )
        # Disjoint windows and distinct links are fine.
        _plan(faults=["n2@5-10", "n2@10-20"])
        _plan(
            degradations=["a->b@5-15:bw=0.5", "b->a@5-15:bw=0.5"]
        )

    def test_effective_drops_noops(self):
        plan = _plan(
            faults=["n2@10-10"],
            degradations=["a->b@5-5:bw=0.1", "a->b@6-9:bw=1"],
        )
        assert plan.effective() is None
        mixed = _plan(
            faults=["n2@10-10", "n3@10-20"],
            degradations=["a->b@5-9:bw=0.5"],
        )
        effective = mixed.effective()
        assert [f.node for f in effective.node_faults] == ["n3"]
        assert len(effective.link_faults) == 1

    def test_bad_knobs_rejected(self):
        with pytest.raises(FaultSpecError):
            FaultPlan(retry_limit=0)
        with pytest.raises(FaultSpecError):
            FaultPlan(backoff_factor=0.5)
        with pytest.raises(FaultSpecError):
            FaultPlan(retry_deadline_s=0.0)


# --------------------------------------------------------------------------
# Topology validation at construction (the new time-aware checks)
# --------------------------------------------------------------------------
def _clustered(nodes=3, **topology_kwargs):
    spec = scenario_by_name("usemem-scenario", scale=0.05)
    return clusterize(spec, nodes, **topology_kwargs)


class TestTopologyValidation:
    def test_migration_to_own_node_rejected(self):
        # Caught by the static placement check before the time-aware walk.
        with pytest.raises(ScenarioError, match="already lives"):
            _clustered(
                migrations=(
                    VmMigration(vm="n1.VM1", to_node="node1", at_s=5.0),
                ),
            )

    def test_migration_after_earlier_migration_made_it_home_rejected(self):
        # The second migration targets the node the first one already
        # moved the VM to — location tracking is time-aware.
        with pytest.raises(ClusterError, match="already lives"):
            _clustered(
                migrations=(
                    VmMigration(vm="n1.VM1", to_node="node2", at_s=5.0),
                    VmMigration(vm="n1.VM1", to_node="node2", at_s=9.0),
                ),
            )

    def test_migration_to_failed_node_rejected(self):
        from repro.scenarios.spec import NodeFailure

        with pytest.raises(ClusterError, match="already failed"):
            _clustered(
                failures=(NodeFailure(node="node2", at_s=4.0),),
                migrations=(
                    VmMigration(vm="n1.VM1", to_node="node2", at_s=6.0),
                ),
            )

    def test_migration_into_fault_window_rejected(self):
        with pytest.raises(ClusterError, match="down"):
            _clustered(
                migrations=(
                    VmMigration(vm="n1.VM1", to_node="node2", at_s=12.0),
                ),
                fault_plan=_plan(faults=["node2@10-20"]),
            )

    def test_fault_plan_unknown_node_rejected(self):
        with pytest.raises(FaultSpecError, match="unknown node"):
            _clustered(fault_plan=_plan(faults=["ghost@5-9"]))
        with pytest.raises(FaultSpecError, match="unknown node"):
            _clustered(
                fault_plan=_plan(
                    degradations=["node1->ghost@5-9:bw=0.5"]
                )
            )

    def test_fault_on_single_node_cluster_rejected(self):
        with pytest.raises(FaultSpecError, match="single-node"):
            _clustered(
                nodes=1,
                fault_plan=_plan(faults=["node1@5-9"]),
            )

    def test_transient_fault_colliding_with_permanent_failure_rejected(self):
        from repro.scenarios.spec import NodeFailure

        with pytest.raises(FaultSpecError, match="collides"):
            _clustered(
                failures=(NodeFailure(node="node2", at_s=15.0),),
                fault_plan=_plan(faults=["node2@10-20"]),
            )

    def test_existing_schedule_checks_still_fire(self):
        from repro.scenarios.spec import NodeFailure

        with pytest.raises(ScenarioError):
            _clustered(
                failures=(
                    NodeFailure(node="node2", at_s=5.0),
                    NodeFailure(node="node2", at_s=9.0),
                ),
            )


# --------------------------------------------------------------------------
# The pinned acceptance scenario
# --------------------------------------------------------------------------
class TestFlakyAcceptance:
    @pytest.fixture(scope="class")
    def flaky_runner(self):
        spec = scenario_by_name(FLAKY, scale=PIN_SCALE)
        runner = ScenarioRunner(
            spec, "greedy", seed=PIN_SEED, check_invariants=True
        )
        result = runner.run()
        return runner, result

    def test_invariant_checker_was_live_and_clean(self, flaky_runner):
        runner, _ = flaky_runner
        # The run completing at all means zero InvariantViolations; the
        # counter proves the checker actually swept.
        assert runner.cluster.invariant_checker is not None
        assert runner.cluster.invariant_checker.checks_run > 0

    def test_breaker_opened_and_closed(self, flaky_runner):
        _, result = flaky_runner
        events = result.cluster["events"]
        states = [e["state"] for e in events if e["kind"] == "breaker"]
        assert "open" in states and "closed" in states
        assert states.index("open") < states.index("closed")

    def test_node_rejoined_and_failed_back(self, flaky_runner):
        _, result = flaky_runner
        events = result.cluster["events"]
        recoveries = [e for e in events if e["kind"] == "recovery"]
        assert len(recoveries) == 1
        assert recoveries[0]["node"] == "node2"
        assert recoveries[0]["failed_back_vms"] == ["n2.VM1"]
        failbacks = [
            e for e in events
            if e["kind"] == "migration" and e.get("failback")
        ]
        assert len(failbacks) == 1
        # The recovered node ends alive and owning its original VM.
        nodes = result.cluster["nodes"]
        assert nodes["node2"]["failed"] is False
        assert nodes["node2"]["vm_names"] == ["n2.VM1"]

    def test_degradation_visible_in_links_and_counters(self, flaky_runner):
        _, result = flaky_runner
        links = result.cluster["links"]
        assert links["node3->node1"].get("stall_s", 0) > 0
        assert sum(
            info.get("breaker_trips", 0)
            for info in result.cluster["nodes"].values()
        ) >= 1
        assert result.cluster["fault_plan"]["node_faults"]

    def test_bit_identical_across_repeated_runs(self, flaky_runner):
        _, result = flaky_runner
        spec = scenario_by_name(FLAKY, scale=PIN_SCALE)
        again = run_scenario(spec, "greedy", seed=PIN_SEED)
        assert again.fingerprint() == result.fingerprint()

    def test_bit_identical_serial_vs_process_backend(self, flaky_runner):
        _, result = flaky_runner
        spec = scenario_by_name(FLAKY, scale=PIN_SCALE)
        # A fault-plan topology is coupled, so inline and process shards
        # alike take the exact shared-engine path in this process and
        # must reproduce the shared-engine run.
        assert coupling_reason(spec) is not None
        for inline in (True, False):
            sharded = ShardedClusterRunner(
                spec, "greedy", shards=2, seed=PIN_SEED, inline=inline
            ).run()
            assert sharded.fingerprint() == result.fingerprint()

    def test_fault_plan_alone_couples_a_topology(self, flaky_runner):
        # Even with no spill/contention/migrations, a fault plan forces
        # the exact single-engine path.
        spec = _clustered(
            remote_spill=False,
            fault_plan=_plan(faults=["node2@5-9"]),
        )
        assert coupling_reason(spec) == "fault plan injects cross-node faults"

    def test_epoch_engine_refuses_fault_plans(self, flaky_runner):
        spec = scenario_by_name(FLAKY, scale=PIN_SCALE)
        assert epoch_fallback_reason(spec) == (
            "fault plan needs the exact cluster engine"
        )
        # The sharded runner under cluster_engine="epoch" falls back to
        # the exact path rather than running the plan windowed.
        runner = ShardedClusterRunner(
            spec, "greedy", shards=2, seed=PIN_SEED, inline=True,
            cluster_engine="epoch",
        )
        assert runner.path.epoch_fallback is not None
        _, result = flaky_runner
        assert runner.run().fingerprint() == result.fingerprint()


class TestFaultyRejoin:
    @pytest.fixture(scope="class")
    def faulty_result(self):
        spec = scenario_by_name(FAULTY, scale=PIN_SCALE)
        return run_scenario(
            spec, "greedy", seed=PIN_SEED, check_invariants=True
        )

    def test_failure_then_recovery_sequence(self, faulty_result):
        events = faulty_result.cluster["events"]
        kinds = [e["kind"] for e in events]
        assert kinds.count("failure") == 1
        assert kinds.count("recovery") == 1
        failure = next(e for e in events if e["kind"] == "failure")
        recovery = next(e for e in events if e["kind"] == "recovery")
        assert failure["at_s"] < recovery["at_s"]

    def test_rejoined_node_restarts_with_empty_pools(self, faulty_result):
        # node2's vault pool was full of spilled pages before the fault;
        # after rejoin + failback only post-recovery activity remains.
        nodes = faulty_result.cluster["nodes"]
        assert nodes["node2"]["failed"] is False
        # The recovered node's sampler restarted: its trace keeps
        # advancing after recover_at_s.
        recovery = next(
            e for e in faulty_result.cluster["events"]
            if e["kind"] == "recovery"
        )
        assert faulty_result.simulated_duration_s > recovery["at_s"]

    def test_fault_run_slower_than_fault_free_twin(self, faulty_result):
        spec = scenario_by_name(FAULTY, scale=PIN_SCALE)
        sound = replace(
            spec, topology=replace(spec.topology, fault_plan=None)
        )
        baseline = run_scenario(sound, "greedy", seed=PIN_SEED)
        assert (
            faulty_result.mean_runtime_s() >= baseline.mean_runtime_s()
        )


# --------------------------------------------------------------------------
# Property tests: determinism, checker neutrality, no-op identity
# --------------------------------------------------------------------------
@st.composite
def fault_plans(draw):
    """A small random fault plan over the flaky family's 3-node layout."""
    fail_at = draw(
        st.floats(min_value=3.0, max_value=8.0).map(lambda x: round(x, 2))
    )
    down_s = draw(
        st.floats(min_value=1.0, max_value=5.0).map(lambda x: round(x, 2))
    )
    failback = draw(st.booleans())
    faults = [
        f"node2@{fail_at}-{fail_at + down_s}:failback={int(failback)}"
    ]
    degradations = []
    if draw(st.booleans()):
        bw = draw(
            st.floats(min_value=0.2, max_value=1.0).map(lambda x: round(x, 2))
        )
        loss = draw(
            st.floats(min_value=0.0, max_value=0.3).map(lambda x: round(x, 2))
        )
        degradations.append(
            f"node1->node3@{fail_at / 2:.2f}-{fail_at + down_s:.2f}:"
            f"bw={bw},loss={loss},lat=0.001"
        )
    if draw(st.booleans()):
        degradations.append(
            f"node3->node1@{fail_at:.2f}-{fail_at + 2.0:.2f}:partition=1"
        )
    return _plan(faults, degradations)


def _plan_spec(plan):
    spec = scenario_by_name("faulty:nodes=3,fail_at=8,down_s=6", scale=0.05)
    return replace(spec, topology=replace(spec.topology, fault_plan=plan))


@settings(max_examples=8, deadline=None)
@given(plan=fault_plans(), seed=st.integers(min_value=0, max_value=2**16))
def test_same_seed_same_fingerprint_checker_neutral(plan, seed):
    """Same (plan, seed) => identical results; the checker changes nothing.

    One run has the invariant checker enabled and one does not, so a
    single property exercises determinism AND checker read-only-ness on
    the full bit-exact fingerprint — and every sweep doubles as proof
    that no random plan breaks an invariant.
    """
    spec = _plan_spec(plan)
    checked = run_scenario(spec, "greedy", seed=seed, check_invariants=True)
    plain = run_scenario(spec, "greedy", seed=seed)
    assert checked.fingerprint() == plain.fingerprint()
    assert (
        checked.aggregate_fingerprint() == plain.aggregate_fingerprint()
    )


@settings(max_examples=6, deadline=None)
@given(
    at=st.floats(min_value=1.0, max_value=20.0).map(lambda x: round(x, 3)),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_zero_width_plan_identical_to_no_plan(at, seed):
    """A plan of zero-width windows is byte-identical to no plan at all."""
    base = scenario_by_name("faulty:nodes=3,fail_at=8,down_s=6", scale=0.05)
    none_spec = replace(base, topology=replace(base.topology, fault_plan=None))
    zero = _plan(
        faults=[f"node2@{at}-{at}"],
        degradations=[
            f"node1->node2@{at}-{at}:bw=0.1,loss=0.5",
            f"node1->node3@{at}-{at + 5.0}:bw=1",  # nominal = no-op
        ],
    )
    zero_spec = replace(base, topology=replace(base.topology, fault_plan=zero))
    a = run_scenario(none_spec, "greedy", seed=seed)
    b = run_scenario(zero_spec, "greedy", seed=seed)
    assert a.fingerprint() == b.fingerprint()


@pytest.mark.parametrize("policy", ["smart-alloc:P=2", "no-tmem"])
@pytest.mark.parametrize("target", [
    "usemem-scenario", "scenario-1", "many-vms:n=4", "churn", "bursty",
    "examples/dsl/filescan.yml", "examples/dsl/trace-replay.yml",
    "examples/dsl/scenario-1.yml",
])
def test_the_checker_sweeps_single_host_runs_and_moves_no_fingerprint(
    target, policy
):
    """A single host is a one-node cluster, so the checker sweeps it too:
    at every statistics tick under tmem, on its own timer under no-tmem."""
    if target.endswith(".yml"):
        compiled = compile_file(str(REPO_ROOT / target))
        spec = compiled.spec
        if policy != "no-tmem":
            policy = compiled.policy or policy
    else:
        spec = scenario_by_name(target, scale=PIN_SCALE)
    assert spec.topology is None
    runner = ScenarioRunner(spec, policy, seed=PIN_SEED, check_invariants=True)
    checked = runner.run()
    assert runner.cluster.invariant_checker.checks_run > 0
    assert checked.cluster is None
    plain = run_scenario(spec, policy, seed=PIN_SEED, check_invariants=False)
    assert checked.fingerprint() == plain.fingerprint()


@pytest.mark.parametrize("policy", ["smart-alloc:P=2", "no-tmem"])
def test_a_run_with_nothing_to_do_takes_no_time_checked_or_not(policy):
    """VMs without jobs are idle from the start, so the run stops at once:
    neither the checker's timer nor the deadline lends it a duration."""
    spec = scenario_by_name("many-vms:n=2", scale=PIN_SCALE)
    spec = replace(spec, vms=tuple(replace(vm, jobs=()) for vm in spec.vms))
    runner = ScenarioRunner(spec, policy, seed=PIN_SEED, check_invariants=True)
    checked = runner.run()
    assert runner.cluster.invariant_checker.checks_run > 0
    assert checked.simulated_duration_s == 0.0
    plain = run_scenario(spec, policy, seed=PIN_SEED, check_invariants=False)
    assert checked.fingerprint() == plain.fingerprint()


def test_invariant_checker_catches_real_corruption():
    """The checker is not a rubber stamp: a broken law raises."""
    spec = scenario_by_name(FAULTY, scale=0.05)
    runner = ScenarioRunner(spec, "greedy", seed=3, check_invariants=True)
    runner.run()
    checker = runner.cluster.invariant_checker
    clean_sweeps = checker.checks_run
    checker.check()  # still healthy after the run
    assert checker.checks_run == clean_sweeps + 1
    # Simulate the coordinator minting capacity out of thin air.
    checker._expected_capacity_pages += 1
    with pytest.raises(InvariantViolation) as exc_info:
        checker.check()
    violation = exc_info.value
    assert violation.check == "capacity-conservation"
    assert violation.at_s == runner.engine.now
    assert "capacity" in str(violation)


def test_invariant_violation_is_structured():
    err = InvariantViolation("page-conservation", 1.5, "2 pages dangle")
    assert err.check == "page-conservation"
    assert err.at_s == 1.5
    assert err.details == "2 pages dangle"
    assert isinstance(err, ClusterError)


# --------------------------------------------------------------------------
# Pinned fingerprints for the fault families
# --------------------------------------------------------------------------
FAULT_PIN_PATH = Path(__file__).parent / "data" / "fault_fingerprints.json"
FAULT_PIN_SCENARIOS = (FAULTY, FLAKY)
FAULT_PIN_POLICIES = (
    "no-tmem",
    "greedy",
    "static-alloc",
    "reconf-static",
    "smart-alloc:P=2",
    "smart-alloc:P=6",
)


@pytest.fixture(scope="module")
def fault_pins() -> dict:
    assert FAULT_PIN_PATH.exists(), (
        f"{FAULT_PIN_PATH} is missing; record it with "
        "PYTHONPATH=src python tests/data/record_fingerprints.py"
    )
    return json.loads(FAULT_PIN_PATH.read_text())


def test_fault_pin_file_covers_every_combination(fault_pins):
    expected = {
        f"{scenario}|{policy}"
        for scenario in FAULT_PIN_SCENARIOS
        for policy in FAULT_PIN_POLICIES
    }
    assert expected == set(fault_pins)


@pytest.mark.parametrize("scenario", FAULT_PIN_SCENARIOS)
def test_fault_fingerprints_match_pins(fault_pins, scenario):
    config = SimulationConfig(
        units=SCENARIO_UNITS, guest=GuestConfig(access_engine="batched")
    )
    spec = scenario_by_name(scenario, scale=PIN_SCALE)
    mismatched = []
    for policy in FAULT_PIN_POLICIES:
        result = run_scenario(spec, policy, config=config, seed=PIN_SEED)
        if result.fingerprint() != fault_pins[f"{scenario}|{policy}"]:
            mismatched.append(policy)
    assert not mismatched, (
        f"{scenario}: fault-injection fingerprints diverged under "
        f"{mismatched} — chaotic runs are no longer bit-reproducible "
        "(re-record only for intentional semantic changes)"
    )
