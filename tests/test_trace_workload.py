"""Trace-driven workloads: JSONL round trip, replay and `trace record`.

A trace *is* its access sequence, so replay is deterministic by
construction; these tests pin the file format (including the per-line
error reporting), the replayer semantics (repeat, phases, footprint) and
the CLI recorder's determinism in both synthetic and scenario modes.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.errors import WorkloadError
from repro.scenarios.dsl import compile_file
from repro.scenarios.runner import run_scenario
from repro.sim.rng import RngFactory
from repro.units import MemoryUnits
from repro.workloads.base import WorkloadStep
from repro.workloads.registry import WORKLOAD_REGISTRY
from repro.workloads.trace import TraceWorkload, dump_trace_steps, load_trace_steps
from repro.workloads.usemem import UsememWorkload

REPO_ROOT = Path(__file__).resolve().parent.parent
UNITS = MemoryUnits(page_bytes=256 * 1024)

STEPS = (
    WorkloadStep(compute_time_s=0.01, pages=(0, 1, 2), frees=(), phase="load"),
    WorkloadStep(compute_time_s=0.02, pages=(1, 3), frees=(0,), phase="steady",
                 write=False),
    WorkloadStep(compute_time_s=0.0, pages=(), frees=(1, 2, 3), phase="done"),
)


def _rng():
    return RngFactory(7).stream("trace-tests")


class TestRoundTrip:
    def test_dump_then_load(self, tmp_path):
        path = tmp_path / "t.jsonl"
        count = dump_trace_steps(STEPS, path)
        assert count == len(STEPS)
        assert load_trace_steps(path) == list(STEPS)

    def test_meta_line_is_written_first_and_skipped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        dump_trace_steps(STEPS, path, meta={"source": "unit-test", "seed": 7})
        first = json.loads(path.read_text().splitlines()[0])
        assert first["meta"]["source"] == "unit-test"
        assert load_trace_steps(path) == list(STEPS)

    def test_dump_accepts_a_live_workload(self, tmp_path):
        workload = UsememWorkload(
            units=UNITS, rng=_rng(), start_mb=32, max_mb=96, increment_mb=32,
            sweeps_per_phase=1, steady_sweeps=1,
        )
        path = tmp_path / "w.jsonl"
        count = dump_trace_steps(workload, path)
        assert count > 0
        assert len(load_trace_steps(path)) == count


class TestLoadErrors:
    def test_invalid_json_reports_the_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"pages": [1]}\nnot json\n')
        with pytest.raises(WorkloadError, match=r"bad\.jsonl:2"):
            load_trace_steps(path)

    def test_unknown_keys_report_the_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"pages": [1], "pagez": []}\n')
        with pytest.raises(WorkloadError, match="pagez"):
            load_trace_steps(path)

    def test_meta_only_allowed_on_line_1(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"pages": [1]}\n{"meta": {}}\n')
        with pytest.raises(WorkloadError, match="line 1"):
            load_trace_steps(path)

    @pytest.mark.parametrize("line, field", [
        ('{"compute_s": NaN, "pages": [1]}', "compute_s"),
        ('{"compute_s": Infinity, "pages": [1]}', "compute_s"),
        pytest.param('{"compute_s": 1%s, "pages": [1]}' % ("0" * 400),
                     "compute_s", id="compute_s-beyond-float"),
        ('{"compute_s": -0.5, "pages": [1]}', "compute_s"),
        ('{"compute_s": true, "pages": [1]}', "compute_s"),
        ('{"compute_s": "0.1", "pages": [1]}', "compute_s"),
        ('{"pages": "123"}', "pages"),
        ('{"pages": [true, false, 2]}', "pages"),
        ('{"pages": [2.7]}', "pages"),
        ('{"pages": ["1"]}', "pages"),
        ('{"pages": [-1]}', "pages"),
        ('{"pages": [1], "frees": 1}', "frees"),
        ('{"pages": [1], "frees": [false]}', "frees"),
        ('{"pages": [1], "write": "false"}', "write"),
        ('{"pages": [1], "write": 0}', "write"),
        ('{"pages": [1], "phase": 3}', "phase"),
    ])
    def test_malformed_field_reports_the_line(self, tmp_path, line, field):
        """A field of the wrong type is rejected, never coerced."""
        path = tmp_path / "bad.jsonl"
        path.write_text('{"pages": [0]}\n' + line + "\n")
        with pytest.raises(WorkloadError, match=rf"bad\.jsonl:2: .*'{field}'"):
            load_trace_steps(path)

    def test_empty_trace_is_an_error(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("\n")
        with pytest.raises(WorkloadError, match="no steps"):
            load_trace_steps(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(WorkloadError, match="cannot read"):
            load_trace_steps(tmp_path / "nope.jsonl")


class TestTraceWorkload:
    def _trace(self, tmp_path, repeat=1):
        path = tmp_path / "t.jsonl"
        dump_trace_steps(STEPS, path)
        return TraceWorkload(units=UNITS, rng=_rng(), path=str(path),
                             repeat=repeat)

    def test_registered_kind(self):
        assert WORKLOAD_REGISTRY["trace"] is TraceWorkload

    def test_replays_the_steps(self, tmp_path):
        assert list(self._trace(tmp_path).generate_steps()) == list(STEPS)

    def test_repeat_concatenates(self, tmp_path):
        steps = list(self._trace(tmp_path, repeat=3).generate_steps())
        assert steps == list(STEPS) * 3

    def test_repeat_must_be_positive(self, tmp_path):
        with pytest.raises(WorkloadError, match="repeat"):
            self._trace(tmp_path, repeat=0)

    def test_phases_in_first_seen_order(self, tmp_path):
        assert [p.name for p in self._trace(tmp_path).phases()] == [
            "load", "steady", "done",
        ]

    def test_peak_footprint(self, tmp_path):
        # live pages: {0,1,2} -> {1,2,3} (0 freed, 3 added) -> {} ; peak 4
        # is hit mid-second-step before the frees apply.
        assert self._trace(tmp_path).peak_footprint_pages() == 4

    def test_scenario_replay_is_deterministic(self):
        doc = REPO_ROOT / "examples" / "dsl" / "trace-replay.yml"
        spec = compile_file(str(doc)).spec
        first = run_scenario(spec, "smart-alloc", seed=2019)
        second = run_scenario(spec, "smart-alloc", seed=2019)
        assert first.fingerprint() == second.fingerprint()


class TestTraceRecordCli:
    def test_synthetic_record_is_deterministic(self, tmp_path):
        argv = [
            "trace", "record", "--workload", "usemem",
            "--param", "start_mb=32", "--param", "max_mb=96",
            "--param", "increment_mb=32", "--param", "sweeps_per_phase=1",
            "--param", "steady_sweeps=1", "--seed", "2019",
        ]
        out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        steps = load_trace_steps(out1)
        assert steps, "recorded trace must contain steps"

    def test_scenario_record_matches_the_node_stream(self, tmp_path):
        # `trace record --scenario` reproduces the exact per-VM RNG
        # stream the runner uses, so the recorded steps equal the stream
        # a hand-built twin workload emits under the same named stream.
        out = tmp_path / "vm.jsonl"
        code = main([
            "trace", "record", "--scenario", "usemem-scenario",
            "--vm", "VM1", "--job", "0", "--scale", "0.1",
            "--seed", "2019", "--out", str(out),
        ])
        assert code == 0
        recorded = load_trace_steps(out)

        from repro.scenarios.library import scenario_by_name

        spec = scenario_by_name("usemem-scenario", scale=0.1)
        vm_spec = next(vm for vm in spec.vms if vm.name == "VM1")
        job = vm_spec.jobs[0]
        rng = RngFactory(2019).stream(
            f"{spec.name}/{vm_spec.name}/{job.kind}/0"
        )
        workload_cls = WORKLOAD_REGISTRY[job.kind]
        twin = workload_cls(units=UNITS, rng=rng, **dict(job.params))

        def flat(step):
            # Live workloads may emit numpy arrays for pages; the trace
            # file stores plain ints.
            return (
                step.compute_time_s,
                tuple(int(p) for p in step.pages),
                tuple(int(p) for p in step.frees),
                step.phase,
                step.write,
            )

        assert [flat(s) for s in recorded] == [
            flat(s) for s in twin.generate_steps()
        ]

    @pytest.mark.parametrize("args,message", [
        (["--workload", "usemem", "--param", "max_mb=x"],
         "--param max_mb: expected an integer, got 'x'"),
        (["--workload", "usemem", "--param", "start_mbb=1"],
         "--param start_mbb: workload 'usemem' has no parameter 'start_mbb'"),
        (["--workload", "trace"],
         "workload 'trace' requires parameter 'path'"),
        (["--workload", "graph-analytics", "--param", "iterations=0"],
         "--param iterations: expected a value > 0, got 0"),
        (["--scenario", "nosuch", "--vm", "VM1"],
         "error: unknown scenario family 'nosuch'"),
        (["--scenario", "usemem-scenario", "--vm", "VM9"],
         "scenario 'usemem-scenario' has no VM named 'VM9'"),
        (["--scenario", "usemem-scenario", "--vm", "VM1", "--scale", "-1"],
         "error: scale must be finite and > 0, got -1.0 (at scale)"),
        (["--scenario", "no-such-file.yml", "--vm", "VM1"],
         "cannot read 'no-such-file.yml'"),
    ])
    def test_bad_input_exits_2_with_one_line(
        self, args, message, tmp_path, capsys
    ):
        out = tmp_path / "x.jsonl"
        assert main(["trace", "record", "--out", str(out), *args]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert message in err
        assert not out.exists()

    def test_bad_document_exits_2(self, tmp_path, capsys):
        doc = tmp_path / "bad.yml"
        doc.write_text("family: many-vms\nparams: {n: x}\n")
        out = tmp_path / "x.jsonl"
        assert main([
            "trace", "record", "--out", str(out), "--scenario", str(doc),
            "--vm", "VM1",
        ]) == 2
        assert f"{doc}:2:10: error: expected a number" in capsys.readouterr().err

    def test_requires_exactly_one_source(self, tmp_path, capsys):
        out = str(tmp_path / "x.jsonl")
        assert main(["trace", "record", "--out", out]) != 0
        assert main([
            "trace", "record", "--out", out,
            "--workload", "usemem", "--scenario", "usemem-scenario",
        ]) != 0


def test_numpy_page_ids_survive_the_round_trip(tmp_path):
    step = WorkloadStep(
        compute_time_s=0.0,
        pages=tuple(np.arange(3, dtype=np.int64)),
        frees=(),
        phase="np",
    )
    path = tmp_path / "np.jsonl"
    dump_trace_steps([step], path)
    (loaded,) = load_trace_steps(path)
    assert loaded.pages == (0, 1, 2)
