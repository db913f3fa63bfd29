"""Scenario-DSL lint: positioned diagnostics, suggestions and warnings.

``lint_text``/``lint_file`` never raise — every problem (including YAML
syntax errors) comes back as a :class:`Diagnostic` with a source
position, and warnings are advisory (feasible but suspicious schedules).
"""

from pathlib import Path

import pytest

from repro.scenarios.dsl import DslError, Diagnostic, compile_text, lint_file, lint_text

REPO_ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = REPO_ROOT / "examples" / "dsl"


def errors(diags):
    return [d for d in diags if d.severity == "error"]


def warnings(diags):
    return [d for d in diags if d.severity == "warning"]


class TestCleanDocuments:
    def test_family_document_is_clean(self):
        assert lint_text("family: many-vms\nparams: {n: 2}\n") == []

    def test_every_committed_example_is_clean(self):
        paths = sorted(EXAMPLES.glob("*.yml"))
        assert paths, "examples/dsl/ must ship example documents"
        for path in paths:
            diags = lint_file(str(path))
            assert diags == [], f"{path.name}: {[d.format(path.name) for d in diags]}"


class TestPositions:
    def test_diagnostic_points_at_the_offending_key(self):
        diags = lint_text(
            "family: many-vms\n"
            "params: {n: 2}\n"
            "polcy: greedy\n"
        )
        (diag,) = errors(diags)
        assert diag.line == 3
        assert diag.column == 1
        assert diag.path == "polcy"
        assert "did you mean 'policy'" in diag.message

    def test_nested_position(self):
        diags = lint_text(
            """\
scenario: pos
tmem_mb: 64
vms:
  - name: VM1
    ram_mb: 64
    jobs:
      - kind: usemem
        params: {start_mbb: 32, max_mb: 64}
"""
        )
        (diag,) = errors(diags)
        assert diag.path == "vms[0].jobs[0].params.start_mbb"
        assert diag.line == 8
        assert "did you mean 'start_mb'" in diag.message

    @pytest.mark.parametrize("family,key", [("many-vms", "n"), ("bursty", "spikes")])
    def test_non_numeric_family_param(self, family, key):
        text = f"family: {family}\nparams:\n  {key}: x\n"
        (diag,) = errors(lint_text(text))
        assert diag.path == f"params.{key}"
        assert (diag.line, diag.column) == (3, 3)
        assert diag.message == "expected a number, got 'x'"
        with pytest.raises(DslError):
            compile_text(text)

    @pytest.mark.parametrize("value,message", [
        ("2.5", "expected an integer, got 2.5"),
        ("0", "expected a value >= 1, got 0"),
    ])
    def test_family_param_type_and_bound_errors_sit_at_the_key(self, value, message):
        text = f"family: many-vms\nparams: {{ram_mb: 256, n: {value}}}\n"
        (diag,) = errors(lint_text(text))
        assert diag.path == "params.n"
        assert (diag.line, diag.column) == (2, 23)
        assert diag.message == message
        with pytest.raises(DslError):
            compile_text(text)

    def test_every_bad_family_param_is_reported(self):
        diags = errors(lint_text("family: bursty\nparams: {n: 0, spikes: 4}\n"))
        assert {(d.path, d.message) for d in diags} == {
            ("params.n", "expected a value >= 1, got 0"),
            ("params.spikes", "expected a value in [1, 3], got 4"),
        }

    def test_cli_reports_non_numeric_family_param(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "bad.yml"
        path.write_text("family: many-vms\nparams: {n: x}\n")
        assert main(["lint", str(path)]) == 1
        assert main(["compile", str(path)]) == 1
        captured = capsys.readouterr()
        line = f"{path}:2:10: error: expected a number, got 'x' (at params.n)"
        assert line in captured.out and line in captured.err

    @pytest.mark.parametrize("value", [".nan", ".inf", "-.inf"])
    def test_non_finite_family_scale(self, value):
        text = f"family: usemem-scenario\nscale: {value}\n"
        (diag,) = errors(lint_text(text))
        assert diag.path == "scale"
        assert (diag.line, diag.column) == (2, 1)
        assert diag.message.startswith("expected a finite number, got ")
        with pytest.raises(DslError):
            compile_text(text)

    def test_non_finite_numbers_in_a_full_document(self):
        diags = lint_text(
            """\
scenario: nan-times
tmem_mb: 64
max_duration_s: .nan
vms:
  - name: VM1
    ram_mb: 64
    jobs:
      - kind: usemem
        start_at: .inf
        params: {start_mb: 32, max_mb: 64}
"""
        )
        found = {(d.path, d.line, d.message) for d in errors(diags)}
        assert found == {
            ("max_duration_s", 3, "expected a finite number, got nan"),
            ("vms[0].jobs[0].start_at", 9, "expected a finite number, got inf"),
        }

    def test_cli_rejects_non_finite_scale(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "nan.yml"
        path.write_text("family: usemem-scenario\nscale: .nan\n")
        assert main(["lint", str(path)]) == 1
        assert main(["run", str(path), "--policy", "greedy"]) == 2
        line = f"{path}:2:1: error: expected a finite number, got nan (at scale)"
        captured = capsys.readouterr()
        assert line in captured.out and line in captured.err

    def test_format_renders_file_line_col(self):
        diag = Diagnostic(
            severity="error", message="boom", path="vms[0]", line=4, column=3
        )
        assert diag.format("doc.yml") == "doc.yml:4:3: error: boom (at vms[0])"


class TestWorkloadParamTypes:
    """Job params are checked against their workload parameter's type."""

    TEXT = """\
scenario: typed
tmem_mb: 64
vms:
  - name: VM1
    ram_mb: 64
    jobs:
      - kind: KIND
        params: {PARAMS}
"""

    @pytest.mark.parametrize("kind,params,key,message", [
        ("usemem", "max_mb: x", "max_mb", "expected an integer, got 'x'"),
        ("usemem", "max_mb: true", "max_mb", "expected an integer, got True"),
        ("usemem", "max_mb: 64.5", "max_mb", "expected an integer, got 64.5"),
        ("usemem", "compute_time_per_page_s: .nan", "compute_time_per_page_s",
         "expected a finite number, got nan"),
        ("usemem", "compute_time_per_page_s: fast", "compute_time_per_page_s",
         "expected a finite number, got 'fast'"),
        ("trace", "path: 3", "path", "expected a string, got 3"),
        ("graph-analytics", "iterations: 0", "iterations",
         "expected a value > 0, got 0"),
        ("usemem", "burst_pages: 0", "burst_pages", "expected a value >= 1, got 0"),
        ("usemem", "compute_time_per_page_s: -1", "compute_time_per_page_s",
         "expected a value >= 0, got -1"),
    ])
    def test_wrong_type_is_a_positioned_error(self, kind, params, key, message):
        text = self.TEXT.replace("KIND", kind).replace("PARAMS", params)
        (diag,) = errors(lint_text(text))
        assert diag.path == f"vms[0].jobs[0].params.{key}"
        assert (diag.line, diag.message) == (8, message)
        with pytest.raises(DslError):
            compile_text(text)

    def test_cli_lint_positions_a_bound_error_at_the_job_param(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        path = tmp_path / "zero-iterations.yml"
        path.write_text(
            self.TEXT.replace("KIND", "graph-analytics")
            .replace("PARAMS", "iterations: 0")
        )
        assert main(["lint", str(path)]) == 1
        assert capsys.readouterr().out == (
            f"{path}:8:18: error: expected a value > 0, got 0 "
            "(at vms[0].jobs[0].params.iterations)\n"
        )

    def test_an_int_is_a_valid_float(self):
        text = self.TEXT.replace("KIND", "usemem").replace(
            "PARAMS", "compute_time_per_page_s: 0, max_mb: 64"
        )
        assert lint_text(text) == []


class TestPolicy:
    def test_argument_the_policy_does_not_take(self, tmp_path, capsys):
        from repro.cli import main

        text = "family: many-vms\nparams: {n: 2}\npolicy: greedy:foo=1\n"
        (diag,) = errors(lint_text(text))
        assert (diag.path, diag.line, diag.column) == ("policy", 3, 1)
        assert diag.message.endswith("has no parameter 'foo'; valid keys: []")
        path = tmp_path / "bad-policy.yml"
        path.write_text(text)
        assert main(["lint", str(path)]) == 1
        assert f"{path}:3:1: error: bad policy spec" in capsys.readouterr().out

    def test_no_tmem_baseline_is_a_policy(self):
        text = "family: many-vms\nparams: {n: 2}\npolicy: no-tmem\n"
        assert lint_text(text) == []
        assert compile_text(text).policy == "no-tmem"


class TestCoordinator:
    TEXT = """\
scenario: coordinated
tmem_mb: 64
vms:
  - name: VM1
    ram_mb: 64
    jobs: [{kind: usemem, params: {start_mb: 16, max_mb: 16}}]
  - name: VM2
    ram_mb: 64
    jobs: [{kind: usemem, params: {start_mb: 16, max_mb: 16}}]
cluster:
  coordinator: COORDINATOR
  nodes:
    - {name: node1, vms: [VM1], tmem_mb: 16}
    - {name: node2, vms: [VM2], tmem_mb: 16}
"""

    @pytest.mark.parametrize("coordinator,message", [
        ("pressure-prob", "did you mean 'pressure-prop'?"),
        ("pressure-prop:foo=1", "valid keys: ['floor', 'percent', 'smoothing']"),
    ])
    def test_bad_coordinator_is_a_positioned_diagnostic(
        self, coordinator, message, tmp_path, capsys
    ):
        from repro.cli import main

        text = self.TEXT.replace("COORDINATOR", coordinator)
        (diag,) = errors(lint_text(text))
        assert (diag.path, diag.line, diag.column) == ("cluster.coordinator", 11, 3)
        assert diag.message.startswith("bad coordinator spec: ")
        assert diag.message.endswith(message)
        path = tmp_path / "bad-coordinator.yml"
        path.write_text(text)
        assert main(["lint", str(path)]) == 1
        assert main(["run", str(path), "--policy", "greedy"]) == 2

    def test_known_coordinator_is_clean(self):
        assert lint_text(self.TEXT.replace("COORDINATOR", "equal-share")) == []


class TestYamlAndStructure:
    def test_yaml_syntax_error_is_a_positioned_diagnostic(self):
        diags = lint_text("family: [unclosed\n")
        assert len(errors(diags)) == 1
        assert diags[0].line is not None

    def test_duplicate_key(self):
        diags = lint_text("family: many-vms\nfamily: churn\n")
        assert any("duplicate" in d.message for d in errors(diags))

    def test_non_mapping_root(self):
        diags = lint_text("- just\n- a list\n")
        assert len(errors(diags)) == 1

    def test_missing_file_is_an_error_not_a_crash(self, tmp_path):
        diags = lint_file(str(tmp_path / "nope.yml"))
        assert len(errors(diags)) == 1


class TestWarnings:
    def test_schedule_past_deadline_warns(self):
        diags = lint_text(
            """\
scenario: late
tmem_mb: 64
max_duration_s: 60
vms:
  - name: VM1
    ram_mb: 64
    jobs:
      - kind: usemem
        params: {start_mb: 32, max_mb: 64}
        start_at: 120
"""
        )
        assert errors(diags) == []
        assert any("max_duration_s" in d.message for d in warnings(diags))

    def test_fault_window_past_deadline_warns(self):
        diags = lint_text(
            """\
scenario: late-fault
tmem_mb: 64
max_duration_s: 60
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
  faults: ["node2@30-90:failback=1"]
"""
        )
        assert errors(diags) == []
        assert any(
            "fault window" in d.message and "extends past" in d.message
            for d in warnings(diags)
        )

    def test_missing_trace_file_warns(self, tmp_path):
        doc = tmp_path / "trace.yml"
        doc.write_text(
            """\
scenario: missing-trace
tmem_mb: 64
vms:
  - name: VM1
    ram_mb: 64
    jobs:
      - kind: trace
        params: {path: does-not-exist.jsonl}
"""
        )
        diags = lint_file(str(doc))
        assert errors(diags) == []
        assert any("does-not-exist.jsonl" in d.message for d in warnings(diags))

    def test_warnings_do_not_fail_compilation(self):
        from repro.scenarios.dsl import compile_text

        compiled = compile_text(
            """\
scenario: late
tmem_mb: 64
max_duration_s: 60
vms:
  - name: VM1
    ram_mb: 64
    jobs:
      - kind: usemem
        params: {start_mb: 32, max_mb: 64}
        start_at: 120
"""
        )
        assert compiled.warnings
