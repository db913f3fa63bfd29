"""Tests for the command-line front end."""

import pytest

from repro.cli import build_parser, main

#: A two-node cluster run, the base of the bad cluster-flag cases.
CLUSTER_RUN = [
    "run", "scenario-1", "--scale", "0.05", "--policy", "greedy", "--nodes", "2",
]


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
        ["sweep", "--scenario", "nosuch", "--policy", "greedy", "--no-store"],
        ["sweep", "--scenario", "scenario-1", "--policy", "greedy",
         "--scale", "-1", "--no-store"],
        [*CLUSTER_RUN, "--coordinator", "nosuch"],
        [*CLUSTER_RUN, "--coordinator", "pressure-prop:foo=1"],
        [*CLUSTER_RUN, "--fail", "node9@5"],
        [*CLUSTER_RUN, "--fail", "node2@-5"],
        [*CLUSTER_RUN, "--fail", "node2@nan"],
        [*CLUSTER_RUN, "--fail", "node2@inf"],
        [*CLUSTER_RUN, "--migrate", "n1.VM9@node2@5"],
        [*CLUSTER_RUN, "--migrate", "n1.VM1@node2@nan"],
    ], ids=[
        "run-unknown-scenario", "run-bad-family-param", "run-negative-scale",
        "run-nan-scale", "run-unknown-policy", "run-bad-policy-argument",
        "sweep-unknown-scenario",
        "sweep-negative-scale",
        "run-unknown-coordinator", "run-bad-coordinator-argument",
        "run-fail-unknown-node", "run-fail-negative-time",
        "run-fail-nan-time", "run-fail-inf-time",
        "run-migrate-unknown-vm", "run-migrate-nan-time",
    ])
    def test_bad_input_exits_2_before_any_run(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert len(captured.err.strip().splitlines()) == 1
        assert "running" not in captured.err and captured.out == ""

    @pytest.mark.parametrize("scenario,shards,path", [
        ("shard:nodes=2", "1", "shared engine in this process: one shard holds every node"),
        ("failover", "2", "shared engine in this process: remote-tmem spill couples the nodes"),
    ])
    def test_run_shards_names_the_in_process_path(
        self, scenario, shards, path, capsys
    ):
        code = main([
            "run", scenario, "--scale", "0.05", "--policy", "greedy",
            "--shards", shards,
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

    @pytest.mark.parametrize("backend", ["serial", "process", "remote"])
    def test_sweep_dead_letters_exit_nonzero(self, capsys, tmp_path, backend):
        """Points that permanently fail dead-letter, are summarized on
        stderr, and flip the exit code — the sweep still archives the
        points that worked, whichever backend ran them."""
        if backend == "remote":
            flags = ["--max-attempts", "2", "--lease-expiry", "5"]
        else:
            flags = ["--max-workers", "2"] if backend == "process" else []
        code = main([
            "sweep",
            "--scenario", "usemem-scenario",
            "--policy", "no-tmem",
            "--policy", "no-such-policy",
            "--seed", "1",
            "--scale", "0.1",
            "--backend", backend,
            *flags,
            "--results-dir", str(tmp_path / "r"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "FAILED: 1 point(s) permanently failed" in err
        assert "dead-letter" in err and "no-such-policy" in err
        # The healthy point was still simulated and archived.
        assert len(list((tmp_path / "r").glob("*.json"))) == 1
