"""Tests for the command-line front end."""

import json
import os
from pathlib import Path

import pytest

from repro.cli import build_parser, main

EXAMPLE_DOC = str(
    Path(__file__).resolve().parent.parent / "examples" / "dsl" / "scenario-1.yml"
)

#: Bad cluster flags: (id, family, flags, ``cluster:`` block of the
#: family-mode twin).  Every run also passes --scale 0.05 --policy greedy.
BAD_CLUSTER_FLAGS = [
    ("run-unknown-coordinator", "scenario-1",
     ["--nodes", "2", "--coordinator", "nosuch"],
     "{nodes: 2, coordinator: nosuch}"),
    ("run-bad-coordinator-argument", "scenario-1",
     ["--nodes", "2", "--coordinator", "pressure-prop:foo=1"],
     "{nodes: 2, coordinator: 'pressure-prop:foo=1'}"),
    ("run-fail-unknown-node", "scenario-1",
     ["--nodes", "2", "--fail", "node9@5"], "{nodes: 2, failures: [node9@5]}"),
    ("run-fail-negative-time", "scenario-1",
     ["--nodes", "2", "--fail", "node2@-5"], "{nodes: 2, failures: [node2@-5]}"),
    ("run-fail-nan-time", "scenario-1",
     ["--nodes", "2", "--fail", "node2@nan"], "{nodes: 2, failures: [node2@nan]}"),
    ("run-fail-inf-time", "scenario-1",
     ["--nodes", "2", "--fail", "node2@inf"], "{nodes: 2, failures: [node2@inf]}"),
    ("run-fail-text-time", "scenario-1",
     ["--nodes", "2", "--fail", "node2@soon"],
     "{nodes: 2, failures: [node2@soon]}"),
    ("run-fail-no-time", "scenario-1",
     ["--nodes", "2", "--fail", "node2"], "{nodes: 2, failures: [node2]}"),
    ("run-migrate-unknown-vm", "scenario-1",
     ["--nodes", "2", "--migrate", "n1.VM9@node2@5"],
     "{nodes: 2, migrations: [n1.VM9@node2@5]}"),
    ("run-migrate-nan-time", "scenario-1",
     ["--nodes", "2", "--migrate", "n1.VM1@node2@nan"],
     "{nodes: 2, migrations: [n1.VM1@node2@nan]}"),
    ("run-migrate-no-node", "scenario-1",
     ["--nodes", "2", "--migrate", "n1.VM1@5"],
     "{nodes: 2, migrations: [n1.VM1@5]}"),
    ("run-fault-no-window", "scenario-1",
     ["--nodes", "2", "--fault", "node2@30"], "{nodes: 2, faults: [node2@30]}"),
    ("run-degrade-no-arrow", "scenario-1",
     ["--nodes", "2", "--degrade", "node1-node2@1-3"],
     "{nodes: 2, degradations: [node1-node2@1-3]}"),
    ("run-zero-nodes", "scenario-1", ["--nodes", "0"], "{nodes: 0}"),
    ("run-nodes-on-cluster-family", "cluster", ["--nodes", "2"], "{nodes: 2}"),
    ("run-coordinator-single-host", "scenario-1",
     ["--coordinator", "equal-share"], "{coordinator: equal-share}"),
    ("run-fault-single-host", "scenario-1",
     ["--fault", "node2@1-3"], "{faults: [node2@1-3]}"),
]
BAD_CLUSTER_CASES = [
    pytest.param(
        ["run", family, "--scale", "0.05", "--policy", "greedy", *flags],
        f"family: {family}\nscale: 0.05\npolicy: greedy\ncluster: {block}\n",
        id=name,
    )
    for name, family, flags, block in BAD_CLUSTER_FLAGS
]


def _message(err: str) -> str:
    """A one-line diagnostic without its location prefix."""
    return err.strip().split(": error: ", 1)[-1]


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "scenario-1"])
        assert args.scenario == "scenario-1"
        assert args.policies is None
        assert args.scale == pytest.approx(0.25)

    def test_run_with_repeated_policies(self):
        args = build_parser().parse_args(
            ["run", "scenario-2", "--policy", "greedy", "--policy", "smart-alloc:P=6"]
        )
        assert args.policies == ["greedy", "smart-alloc:P=6"]

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_shard_flag_defaults(self, command):
        argv = [command, "scenario-1"] if command == "run" else [command]
        args = build_parser().parse_args(argv)
        assert args.shards is None
        assert args.cluster_engine == "exact"

    def test_bench_is_not_a_command(self):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["bench"])
        assert excinfo.value.code == 2


class TestCommands:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "scenario-1" in out
        assert "smart-alloc" in out
        assert "no-tmem" in out
        # The parametric families and the workload kinds are listed too.
        assert "many-vms" in out and "churn" in out and "bursty" in out
        assert "Workload kinds:" in out
        assert "graph-analytics" in out

    def test_list_verbose_prints_each_family_bound(self, capsys):
        assert main(["list", "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "spikes: int = 1 ([1, 3])  number of" in out
        assert "fail_at: float = 30.0 (> 0) [s]" in out

    def test_tables_command(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out and "Table II" in out
        assert "vm_data_hyp[id].tmem_used" in out

    def test_run_command_small_scale(self, capsys):
        code = main([
            "run", "usemem-scenario",
            "--scale", "0.1",
            "--seed", "5",
            "--policy", "greedy",
            "--policy", "no-tmem",
            "--fairness",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Running times" in out
        assert "greedy" in out and "no-tmem" in out
        assert "Jain fairness" in out

    def test_run_command_with_traces(self, capsys):
        code = main([
            "run", "scenario-1",
            "--scale", "0.1",
            "--policy", "static-alloc",
            "--traces",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Tmem usage over time" in out

    @pytest.mark.parametrize("argv", [
        ["run", "scenario-99", "--policy", "greedy"],
        ["run", "many-vms:n=x"],
        ["run", "scenario-1", "--scale", "-1"],
        ["run", "scenario-1", "--scale", "nan"],
        ["run", "scenario-1", "--policy", "nosuch"],
        ["run", "scenario-1", "--policy", "greedy:foo=1"],
        ["run", "usemem-scenario", "--scale", "0.05", "--policy",
         "smart-alloc:P=nan"],
        ["run", "contended:nodes=2", "--scale", "0.05", "--policy", "greedy",
         "--coordinator", "spill-feedback:spill_weight=nan"],
        ["sweep", "--scenario", "nosuch", "--policy", "greedy", "--no-store"],
        ["sweep", "--scenario", "scenario-1", "--policy", "greedy",
         "--scale", "-1", "--no-store"],
        ["sweep", "--scenario", "scenario-1", "--policy", "greedy",
         "--no-store", "--shards", "0"],
        ["sweep", "--scenario", "scenario-1", "--policy", "greedy",
         "--no-store", "--shards", "x"],
        ["run", "scenario-1", "--shards", "0"],
        ["run", EXAMPLE_DOC, "--nodes", "2"],
        ["run", "no-such-file.yml"],
        ["run", "many-vms:n=2.5"],
        ["run", "contended:nodes=1"],
        ["sweep", "--scenario", "contended:nodes=2.7", "--policy", "greedy",
         "--no-store"],
        ["sweep", "--scenario", "contended:nodes=2", "--scenario",
         "contended:NODES=2.0", "--num-seeds", "1", "--scale", "0.05",
         "--no-store"],
        ["sweep", "--scenario", "many-vms", "--scenario", "many-vms:n=6",
         "--num-seeds", "1", "--scale", "0.05", "--no-store"],
        *(case.values[0] for case in BAD_CLUSTER_CASES),
    ], ids=[
        "run-unknown-scenario", "run-bad-family-param", "run-negative-scale",
        "run-nan-scale", "run-unknown-policy", "run-bad-policy-argument",
        "run-nan-policy-argument", "run-nan-coordinator-argument",
        "sweep-unknown-scenario",
        "sweep-negative-scale",
        "sweep-zero-shards", "sweep-non-numeric-shards", "run-zero-shards",
        "run-document-with-cluster-flags", "run-missing-document",
        "run-fractional-int-param", "run-param-out-of-bounds",
        "sweep-fractional-int-param",
        "sweep-same-configuration-respelled", "sweep-family-and-its-defaults",
        *(case.id for case in BAD_CLUSTER_CASES),
    ])
    def test_bad_input_exits_2_before_any_run(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert len(captured.err.strip().splitlines()) == 1
        assert "running" not in captured.err and captured.out == ""

    @pytest.mark.parametrize("argv,message", [
        (["run", "many-vms:n=2.5"],
         "<command line>: error: expected an integer, got 2.5 (at params.n)"),
        (["run", "contended:nodes=1"],
         "<command line>: error: expected a value >= 2, got 1 (at params.nodes)"),
        (["sweep", "--scenario", "contended:nodes=2.7", "--policy", "greedy",
          "--no-store"],
         "<command line>: error: expected an integer, got 2.7 (at params.nodes)"),
    ])
    def test_bad_family_parameter_names_the_parameter(self, argv, message, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err.strip() == message

    @pytest.mark.parametrize("scenario,scale", [
        ("nosuch", "0.05"),
        ("many-vms:n=2.5", "0.05"),
        ("contended:nodes=1", "0.05"),
        ("many-vms:n", "0.05"),
        ("scenario-1", "-1"),
    ], ids=["unknown-family", "fractional-int-param", "param-out-of-bounds",
            "param-without-value", "negative-scale"])
    def test_run_and_sweep_word_a_bad_spec_string_alike(
        self, scenario, scale, capsys
    ):
        """``run`` and ``sweep`` compile spec strings through one function,
        so the same mistake prints the same line."""
        assert main(["run", scenario, "--scale", scale, "--policy", "greedy"]) == 2
        run_err = capsys.readouterr().err
        assert main([
            "sweep", "--scenario", scenario, "--scale", scale,
            "--policy", "greedy", "--no-store",
        ]) == 2
        assert capsys.readouterr().err == run_err

    @pytest.mark.parametrize("argv,document", BAD_CLUSTER_CASES)
    def test_bad_cluster_flags_match_their_document(
        self, argv, document, capsys, tmp_path
    ):
        """Cluster flags compile as a family-mode document, so the flags
        and their document fail with the same message at the same key."""
        assert main(argv) == 2
        flag_err = capsys.readouterr().err
        path = tmp_path / "twin.yml"
        path.write_text(document)
        assert main(["run", str(path)]) == 2
        captured = capsys.readouterr()
        assert len(captured.err.strip().splitlines()) == 1
        assert captured.out == ""
        assert captured.err.startswith(f"{path}:")
        assert _message(captured.err) == _message(flag_err)

    @pytest.mark.parametrize("flags,document", [
        pytest.param(
            ["scenario-1", "--nodes", "2", "--contended", "--fail", "node2@5"],
            "family: scenario-1\n"
            "cluster: {nodes: 2, contended: true, failures: [node2@5]}\n",
            id="replicated-contended-fail",
        ),
        pytest.param(
            ["scenario-1", "--nodes", "2", "--coordinator", "equal-share",
             "--migrate", "n1.VM1@node2@3"],
            "family: scenario-1\n"
            "cluster:\n"
            "  nodes: 2\n"
            "  coordinator: equal-share\n"
            "  migrations: [n1.VM1@node2@3]\n",
            id="coordinator-migrate",
        ),
        pytest.param(
            ["contended:nodes=2", "--fault", "node2@1-3",
             "--degrade", "node1->node2@1-3:bw=0.5"],
            "family: contended\nparams: {nodes: 2}\n"
            "cluster:\n"
            "  faults: [node2@1-3]\n"
            "  degradations: ['node1->node2@1-3:bw=0.5']\n",
            id="fault-degrade",
        ),
        pytest.param(
            ["faulty", "--degrade", "node1->node2@1-3:bw=0.5"],
            "family: faulty\n"
            "cluster: {degradations: ['node1->node2@1-3:bw=0.5']}\n",
            id="degrade-on-faulty",
        ),
        pytest.param(
            ["cluster:nodes=3", "--coordinator", "equal-share"],
            "family: cluster\nparams: {nodes: 3}\n"
            "cluster: {coordinator: equal-share}\n",
            id="coordinator-on-cluster-family",
        ),
    ])
    def test_flags_run_like_their_document(
        self, flags, document, capsys, tmp_path
    ):
        common = ["--scale", "0.05", "--policy", "greedy"]
        assert main(["run", *flags, *common]) == 0
        flag_out = capsys.readouterr().out
        path = tmp_path / "twin.yml"
        path.write_text(document + "scale: 0.05\npolicy: greedy\n")
        assert main(["run", str(path)]) == 0
        assert capsys.readouterr().out == flag_out
        assert "Per-node breakdown" in flag_out

    def test_table_title_prints_the_document_scale(self, capsys, tmp_path):
        path = tmp_path / "small.yml"
        path.write_text("family: usemem-scenario\nscale: 0.1\npolicy: greedy\n")
        assert main(["run", str(path)]) == 0
        assert "usemem-scenario (scale=0.1)" in capsys.readouterr().out

    def test_transient_fault_under_a_coordinator_runs_to_completion(
        self, capsys, monkeypatch
    ):
        """A rejoining node drops its stale domains, so the summed
        failed-put counter shrinks; the coordinator's next round must
        still see non-negative pressure (it used to raise PolicyError)."""
        # The nightly invariant step sets this variable too; the flag
        # arms the checker by argument either way.
        monkeypatch.setenv("SMARTMEM_CHECK_INVARIANTS", "1")
        assert main([
            "run", "contended:nodes=2", "--scale", "0.1", "--policy", "greedy",
            "--fault", "node2@2-5", "--check-invariants",
        ]) == 0
        assert "1 node recovery(ies)" in capsys.readouterr().out

    def test_check_invariants_leaves_the_environment_alone(self, monkeypatch):
        monkeypatch.delenv("SMARTMEM_CHECK_INVARIANTS", raising=False)
        assert main([
            "run", "usemem-scenario", "--scale", "0.05", "--policy", "greedy",
            "--check-invariants",
        ]) == 0
        assert "SMARTMEM_CHECK_INVARIANTS" not in os.environ

    @pytest.mark.parametrize("scenario,flags,path", [
        ("shard:nodes=2", ["--shards", "1"],
         "shared engine in this process: one shard holds every node"),
        ("failover", ["--shards", "2"],
         "shared engine in this process: remote-tmem spill couples the nodes"),
        ("usemem-scenario", ["--shards", "2"],
         "shared engine in this process: single-host scenario (no cluster topology)"),
        ("usemem-scenario", [],
         "shared engine in this process: single-host scenario (no cluster topology)"),
        ("contended:nodes=2", ["--cluster-engine", "epoch"],
         "1 epoch shard in this process: remote-tmem spill couples the nodes"),
    ])
    def test_run_shards_names_the_in_process_path(
        self, scenario, flags, path, capsys
    ):
        code = main([
            "run", scenario, "--scale", "0.05", "--policy", "greedy", *flags,
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert f"under greedy ({path}) ..." in err

    def test_sweep_command_archives_and_aggregates(self, capsys, tmp_path):
        results_dir = tmp_path / "sweep"
        argv = [
            "sweep",
            "--scenario", "usemem-scenario",
            "--policy", "greedy",
            "--policy", "no-tmem",
            "--num-seeds", "2",
            "--scale", "0.1",
            "--results-dir", str(results_dir),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "Sweep aggregate" in out
        assert "greedy" in out and "no-tmem" in out
        assert "2 new" not in out  # 4 points: 2 policies x 2 seeds
        assert "4 new, 0 reused" in out
        assert len(list(results_dir.glob("*.json"))) == 4
        # Re-running resumes from the archive instead of re-simulating.
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "0 new, 4 reused" in out

    def test_sweep_with_family_and_explicit_seed(self, capsys, tmp_path):
        assert main([
            "sweep",
            "--scenario", "churn:n=4",
            "--policy", "greedy",
            "--seed", "7",
            "--scale", "0.1",
            "--results-dir", str(tmp_path / "r"),
        ]) == 0
        out = capsys.readouterr().out
        assert "churn:n=4" in out

    def test_sweep_remote_backend_matches_serial_archive(self, capsys, tmp_path):
        """`sweep --backend remote` completes and archives results with
        fingerprints identical to a serial run of the same spec."""
        import json

        axes = [
            "--scenario", "usemem-scenario",
            "--policy", "greedy",
            "--num-seeds", "2",
            "--scale", "0.1",
        ]
        serial_dir, remote_dir = tmp_path / "serial", tmp_path / "remote"
        assert main(["sweep", *axes, "--results-dir", str(serial_dir)]) == 0
        capsys.readouterr()
        assert main([
            "sweep", *axes,
            "--backend", "remote",
            "--num-workers", "2",
            "--lease-expiry", "5",
            "--results-dir", str(remote_dir),
        ]) == 0
        out = capsys.readouterr().out
        assert "backend=remote" in out

        def fingerprints(directory):
            out = {}
            for path in directory.glob("*.json"):
                envelope = json.loads(path.read_text())
                out[path.name] = envelope["fingerprint"]
            return out

        serial_fps = fingerprints(serial_dir)
        assert serial_fps and fingerprints(remote_dir) == serial_fps

    @pytest.mark.parametrize("backend,healthy", [
        *(pytest.param(backend, ["no-tmem"], id=backend)
          for backend in ("serial", "process", "remote")),
        *(pytest.param(backend, [], id=f"{backend}-all-failing")
          for backend in ("serial", "process", "remote")),
    ])
    def test_sweep_dead_letters_exit_nonzero(
        self, capsys, tmp_path, backend, healthy
    ):
        """Points that permanently fail dead-letter, are summarized on
        stderr, and flip the exit code — the sweep still archives the
        points that worked, whichever backend ran them, and skips the
        aggregate table when none did."""
        if backend == "remote":
            flags = ["--max-attempts", "2", "--lease-expiry", "5"]
        else:
            flags = ["--max-workers", "2"] if backend == "process" else []
        code = main([
            "sweep",
            "--scenario", "usemem-scenario",
            *(arg for policy in healthy for arg in ("--policy", policy)),
            "--policy", "no-such-policy",
            "--seed", "1",
            "--scale", "0.1",
            "--backend", backend,
            *flags,
            "--results-dir", str(tmp_path / "r"),
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert "FAILED: 1 point(s) permanently failed" in captured.err
        assert "dead-letter" in captured.err and "no-such-policy" in captured.err
        # The healthy point was still simulated and archived.
        assert len(list((tmp_path / "r").glob("*.json"))) == len(healthy)
        assert ("Sweep aggregate" in captured.out) == bool(healthy)


class TestCompileAndPlan:
    def test_compile_json_serializes_both_trigger_kinds(self, tmp_path, capsys):
        """The usemem scenario starts VM3 from one phase trigger and stops
        on another: the start trigger names its VM, the stop trigger none."""
        path = tmp_path / "usemem.yml"
        path.write_text("family: usemem-scenario\nscale: 0.1\n")
        assert main(["compile", str(path), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        (trigger,) = data["triggers"]
        assert trigger == {
            "watch_vm": "VM1", "phase_prefix": "alloc-65MB", "start_vm": "VM3",
        }
        assert data["stop_trigger"] == {"watch_vm": "VM3", "phase_prefix": "alloc-78MB"}

    def test_plan_prints_the_compiled_plan(self, capsys):
        from repro.scenarios.dsl import compile_file, format_plan, plan_dict

        compiled = compile_file(EXAMPLE_DOC)
        assert main(["plan", EXAMPLE_DOC]) == 0
        assert capsys.readouterr().out == format_plan(compiled) + "\n"
        assert main(["plan", EXAMPLE_DOC, "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == json.loads(
            json.dumps(plan_dict(compiled))
        )

    def test_plan_of_a_broken_document_exits_1(self, tmp_path, capsys):
        path = tmp_path / "broken.yml"
        path.write_text("family: many-vms\nparams: {n: 0}\n")
        assert main(["plan", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"{path}:2:10: error: expected a value >= 1, got 0 (at params.n)\n"
        )
