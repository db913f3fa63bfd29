"""Scenario-DSL compiler: family twins, explicit mode and structured errors.

The headline guarantee of family mode is that compilation *is* a
registry factory call, so a DSL document and its spec-string twin
produce byte-identical specs — and therefore byte-identical run
fingerprints.  Explicit mode is checked structurally, and the error
paths are checked to collect *every* problem instead of stopping at the
first one.
"""

from dataclasses import replace
from pathlib import Path

import pytest

from repro.cluster import clusterize
from repro.cluster.faults import FaultPlan, parse_node_fault
from repro.scenarios.dsl import DslError, compile_file, compile_text, lint_text
from repro.scenarios.library import scenario_by_name
from repro.scenarios.registry import paper_scenario_names
from repro.scenarios.runner import run_scenario
from repro.scenarios.spec import NodeFailure, PhaseTrigger, ScenarioSpec, VmMigration

REPO_ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = REPO_ROOT / "examples" / "dsl"

#: (family-mode document, equivalent spec string) twins.  Three families
#: is the floor the fingerprint-equivalence guarantee is pinned at.
TWINS = [
    ("family: many-vms\nscale: 0.1\nparams: {n: 2}\n", "many-vms:n=2"),
    ("family: churn\nscale: 0.1\nparams: {n: 2}\n", "churn:n=2"),
    ("family: bursty\nscale: 0.1\nparams: {spikes: 1}\n", "bursty:spikes=1"),
]


class TestFamilyMode:
    @pytest.mark.parametrize("text,spec_string", TWINS)
    def test_spec_equals_spec_string_twin(self, text, spec_string):
        compiled = compile_text(text)
        assert compiled.mode == "family"
        assert compiled.spec == scenario_by_name(spec_string, scale=0.1)

    @pytest.mark.parametrize("text,spec_string", TWINS)
    def test_run_fingerprint_equals_spec_string_twin(self, text, spec_string):
        compiled = compile_text(text)
        dsl_run = run_scenario(compiled.spec, "greedy", seed=2019)
        twin_run = run_scenario(
            scenario_by_name(spec_string, scale=0.1), "greedy", seed=2019
        )
        assert dsl_run.fingerprint() == twin_run.fingerprint()

    @pytest.mark.parametrize("name", sorted(paper_scenario_names()))
    def test_every_paper_scenario_compiles(self, name):
        compiled = compile_text(f"family: {name}\nscale: 0.25\n")
        assert compiled.spec == scenario_by_name(name, scale=0.25)

    def test_policy_and_seed_defaults(self):
        compiled = compile_text(
            "family: many-vms\nparams: {n: 2}\npolicy: smart-alloc:P=2\nseed: 7\n"
        )
        assert compiled.policy == "smart-alloc:P=2"
        assert compiled.seed == 7

    def test_committed_example_matches_the_paper_scenario(self):
        compiled = compile_file(str(EXAMPLES / "scenario-1.yml"))
        assert compiled.spec == scenario_by_name("scenario-1", scale=0.25)
        assert compiled.policy == "smart-alloc"
        assert compiled.seed == 2019


class TestExplicitMode:
    def test_small_document(self):
        compiled = compile_text(
            """
scenario: tiny
description: two VMs
tmem_mb: 128
max_duration_s: 120
vms:
  - name: VM1
    ram_mb: 64
    jobs:
      - kind: usemem
        params: {start_mb: 32, max_mb: 96, increment_mb: 32}
  - name: VM2
    ram_mb: 64
    vcpus: 2
    jobs:
      - kind: usemem
        params: {start_mb: 32, max_mb: 96, increment_mb: 32}
        start_at: 5
        label: late
"""
        )
        spec = compiled.spec
        assert isinstance(spec, ScenarioSpec)
        assert compiled.mode == "explicit"
        assert spec.name == "tiny"
        assert spec.tmem_mb == 128
        assert spec.max_duration_s == 120
        assert [vm.name for vm in spec.vms] == ["VM1", "VM2"]
        assert spec.vms[1].vcpus == 2
        job = spec.vms[1].jobs[0]
        assert job.start_at == 5
        assert job.label == "late"
        assert spec.topology is None

    def test_cluster_document(self):
        compiled = compile_file(str(EXAMPLES / "cluster-faults.yml"))
        topology = compiled.spec.topology
        assert topology is not None
        assert [n.name for n in topology.nodes] == ["node1", "node2"]
        assert topology.coordinator == "equal-share"
        plan = topology.fault_plan
        assert plan is not None
        assert len(plan.node_faults) == 1
        assert plan.node_faults[0].node == "node2"
        assert len(plan.link_faults) == 1
        assert plan.link_faults[0].name == "node1->node2"

    def test_quoted_numeric_string_stays_a_string(self):
        # YAML scalars keep their quoted types: a VM named "123" is a
        # string, an unquoted ram_mb is an int.
        compiled = compile_text(
            """
scenario: quoted
tmem_mb: 64
vms:
  - name: "123"
    ram_mb: 64
    jobs: [{kind: usemem, params: {start_mb: 32, max_mb: 64}}]
"""
        )
        assert compiled.spec.vms[0].name == "123"


#: Two usemem VMs for the trigger documents below.
TWO_VMS = """
scenario: triggered
tmem_mb: 64
vms:
  - name: VM1
    ram_mb: 64
    jobs: [{kind: usemem, params: {start_mb: 32, max_mb: 64}}]
  - name: VM2
    ram_mb: 64
    jobs: [{kind: usemem, params: {start_mb: 32, max_mb: 64}}]
"""


class TestTriggers:
    def test_start_and_stop_triggers(self):
        compiled = compile_text(
            TWO_VMS
            + """triggers:
  - {watch_vm: VM1, phase_prefix: alloc, start_vm: VM2}
stop_trigger: {watch_vm: VM2, phase_prefix: free}
"""
        )
        assert compiled.spec.phase_triggers == (
            PhaseTrigger(watch_vm="VM1", phase_prefix="alloc", start_vm="VM2"),
        )
        assert compiled.spec.stop_trigger == PhaseTrigger(
            watch_vm="VM2", phase_prefix="free"
        )

    def test_bad_triggers_get_positioned_diagnostics(self):
        diags = lint_text(
            TWO_VMS
            + """triggers:
  - {watch_vm: VM1, phase_prefix: alloc}
  - {watch_vm: VM3, phase_prefix: alloc, start_vm: VM2}
"""
        )
        assert [(d.path, d.line, d.message) for d in diags] == [
            ("triggers[0]", 12, "trigger needs a 'start_vm'"),
            (
                "triggers[1].watch_vm",
                13,
                "trigger watch_vm 'VM3' is not a declared VM; did you mean 'VM2'?",
            ),
        ]


class TestErrors:
    def _errors(self, text):
        with pytest.raises(DslError) as excinfo:
            compile_text(text)
        return excinfo.value

    def test_unknown_family_suggests(self):
        err = self._errors("family: many-vm\n")
        assert "many-vm" in str(err)
        assert "did you mean 'many-vms'" in str(err)

    def test_family_and_scenario_are_exclusive(self):
        err = self._errors("family: many-vms\nscenario: also\ntmem_mb: 64\n")
        assert "mixes family mode" in str(err)

    def test_empty_document(self):
        with pytest.raises(DslError):
            compile_text("")

    def test_unknown_workload_param_suggests(self):
        err = self._errors(
            """
scenario: bad
tmem_mb: 64
vms:
  - name: VM1
    ram_mb: 64
    jobs:
      - kind: usemem
        params: {start_mbb: 32}
"""
        )
        assert "start_mbb" in str(err)
        assert "did you mean 'start_mb'" in str(err)

    def test_all_errors_collected(self):
        # One compile pass reports the bad kind, the bad policy and the
        # unknown top-level key — not just the first.
        err = self._errors(
            """
scenario: multi
tmem_mb: 64
policy: smrt-alloc
polarity: 3
vms:
  - name: VM1
    ram_mb: 64
    jobs: [{kind: usemen, params: {}}]
"""
        )
        text = err.render()
        assert "usemen" in text
        assert "smrt-alloc" in text
        assert "polarity" in text
        assert len(err.errors) >= 3

    def test_unknown_vm_reference_in_cluster(self):
        err = self._errors(
            """
scenario: bad-cluster
tmem_mb: 64
vms:
  - name: VM1
    ram_mb: 64
    jobs: [{kind: usemem, params: {start_mb: 32, max_mb: 64}}]
cluster:
  nodes:
    - {name: node1, vms: [VM2], tmem_mb: 64}
"""
        )
        assert "VM2" in str(err)
        assert "did you mean 'VM1'" in str(err)

    def test_bad_fault_spec_string(self):
        err = self._errors(
            """
scenario: bad-fault
tmem_mb: 64
vms:
  - name: VM1
    ram_mb: 64
    jobs: [{kind: usemem, params: {start_mb: 32, max_mb: 64}}]
  - name: VM2
    ram_mb: 64
    jobs: [{kind: usemem, params: {start_mb: 32, max_mb: 64}}]
cluster:
  nodes:
    - {name: node1, vms: [VM1], tmem_mb: 64}
    - {name: node2, vms: [VM2], tmem_mb: 64}
  faults: ["node2@30"]
"""
        )
        assert "bad fault spec 'node2@30'" in err.render()

    def test_infeasible_host_memory(self):
        err = self._errors(
            """
scenario: too-small
tmem_mb: 512
host_memory_mb: 256
vms:
  - name: VM1
    ram_mb: 512
    jobs: [{kind: usemem, params: {start_mb: 32, max_mb: 64}}]
"""
        )
        assert "host" in str(err).lower()

    def test_diagnostics_carry_positions(self):
        err = self._errors("family: nope\n")
        diag = err.errors[0]
        assert diag.line == 1
        assert diag.column is not None


#: Two single-VM nodes; append a ``  failures:``/``  migrations:`` line.
TWO_NODES = """\
scenario: two-nodes
tmem_mb: 64
vms:
  - name: VM1
    ram_mb: 64
    jobs: [{kind: usemem, params: {start_mb: 32, max_mb: 64}}]
  - name: VM2
    ram_mb: 64
    jobs: [{kind: usemem, params: {start_mb: 32, max_mb: 64}}]
cluster:
  nodes:
    - {name: node1, vms: [VM1], tmem_mb: 64}
    - {name: node2, vms: [VM2], tmem_mb: 64}
"""

#: The family-mode twin: scenario-1 replicated onto two nodes.
FAMILY_TWO_NODES = "family: scenario-1\nscale: 0.1\ncluster:\n  nodes: 2\n"


class TestClusterSchedules:
    """``failures``/``migrations`` take the run-flag grammar in both modes."""

    @pytest.mark.parametrize("base,vm", [(TWO_NODES, "VM1"),
                                         (FAMILY_TWO_NODES, "n1.VM1")])
    def test_strings_compile(self, base, vm):
        compiled = compile_text(
            base + f"  failures: [node2@30]\n  migrations: [{vm}@node2@10]\n"
        )
        topology = compiled.spec.topology
        assert topology.failures == (NodeFailure(node="node2", at_s=30.0),)
        assert topology.migrations == (
            VmMigration(vm=vm, to_node="node2", at_s=10.0),
        )

    def test_family_block_is_clusterize(self):
        compiled = compile_text(
            FAMILY_TWO_NODES
            + "  contended: true\n  coordinator: equal-share\n"
            "  failures: [node2@30]\n  faults: [node1@5-9]\n"
        )
        assert compiled.spec == clusterize(
            scenario_by_name("scenario-1", scale=0.1),
            2,
            coordinator="equal-share",
            contended=True,
            failures=(NodeFailure(node="node2", at_s=30.0),),
            fault_plan=FaultPlan(node_faults=(parse_node_fault("node1@5-9"),)),
        )

    @pytest.mark.parametrize("base", [TWO_NODES, FAMILY_TWO_NODES],
                             ids=["explicit", "family"])
    @pytest.mark.parametrize("line,path,message", [
        ("  failures: [node2]\n", "cluster.failures[0]",
         "bad failure spec 'node2': expected NODE@TIME"),
        ("  failures: [node2@soon]\n", "cluster.failures[0]",
         "bad failure spec 'node2@soon': time 'soon' is not a number"),
        ("  failures: [node2@-5]\n", "cluster.failures[0]",
         "failure time must be finite and > 0, got -5.0"),
        ("  failures: [{node: node2, at_s: 30}]\n", "cluster.failures[0]",
         "expected a string, got dict"),
        ("  migrations: [VM1@10]\n", "cluster.migrations[0]",
         "bad migration spec 'VM1@10': expected VM@NODE@TIME"),
        ("  migrations: [VM1@node2@.inf]\n", "cluster.migrations[0]",
         "bad migration spec 'VM1@node2@.inf': time '.inf' is not a number"),
        ("  failures: [node9@30]\n", "cluster",
         "failure names unknown node 'node9'"),
        ("  migrations: [VM9@node2@10]\n", "cluster",
         "migration names unknown VM 'VM9'"),
    ])
    def test_bad_entries_get_positioned_errors(self, base, line, path, message):
        (diag,) = lint_text(base + line)
        assert (diag.path, diag.message) == (path, message)
        # An entry's error points at the appended line; a topology error
        # at the cluster block, which starts below its 'cluster:' key.
        lines = base.splitlines()
        block_line = lines.index("cluster:") + 2
        assert diag.line == (block_line if path == "cluster" else len(lines) + 1)


class TestFamilyCluster:
    def test_keys_without_nodes_replace_the_family_topology(self):
        compiled = compile_text(
            "family: cluster\nscale: 0.1\nparams: {nodes: 3}\n"
            "cluster: {coordinator: equal-share, faults: [node2@5-9]}\n"
        )
        base = scenario_by_name("cluster:nodes=3", scale=0.1)
        assert compiled.spec == replace(base, topology=replace(
            base.topology,
            coordinator="equal-share",
            fault_plan=FaultPlan(node_faults=(parse_node_fault("node2@5-9"),)),
        ))

    def test_fault_keys_replace_the_family_fault_plan(self):
        compiled = compile_text(
            "family: faulty\ncluster: {degradations: ['node1->node2@1-3:bw=0.5']}\n"
        )
        plan = compiled.spec.topology.fault_plan
        assert plan.node_faults == ()
        assert [deg.name for deg in plan.link_faults] == ["node1->node2"]

    @pytest.mark.parametrize("text,path,message", [
        ("family: cluster\ncluster: {nodes: 2}\n", "cluster.nodes",
         "family 'cluster' already defines its own cluster topology; "
         "'nodes' only replicates single-host families"),
        ("family: scenario-1\ncluster: {contended: true}\n", "cluster",
         "family 'scenario-1' runs on a single host; its cluster keys need "
         "'nodes: N' (--nodes N) to replicate it onto N nodes"),
        ("family: scenario-1\ncluster: {nodes: 0}\n", "cluster.nodes",
         "nodes must be >= 1, got 0"),
        ("family: scenario-1\ncluster: {nodes: 2, remote_spill: false}\n",
         "cluster.remote_spill",
         "unknown key 'remote_spill'; valid keys: ['contended', 'coordinator', "
         "'degradations', 'failures', 'faults', 'migrations', 'nodes']"),
        ("family: scenario-1\ncluster: {nodes: 2, faults: [node9@1-3]}\n",
         "cluster", "fault plan names unknown node 'node9'"),
    ])
    def test_bad_blocks_get_positioned_errors(self, text, path, message):
        (diag,) = lint_text(text)
        assert (diag.path, diag.message, diag.line) == (path, message, 2)
