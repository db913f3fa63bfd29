"""Experiment orchestration: sweep specs, stores, backends, run_sweep."""

import os
import warnings

import pytest

from repro.errors import ExperimentError
from repro.experiments import (
    ExperimentPoint,
    ProcessPoolBackend,
    ResultStore,
    SerialBackend,
    SweepSpec,
    available_backends,
    create_backend,
    execute_point,
    run_sweep,
)

#: One tiny, fast sweep used throughout: 2 policies x 2 seeds = 4 points.
TINY = SweepSpec(
    scenarios=("usemem-scenario",),
    policies=("greedy", "no-tmem"),
    seeds=(1, 2),
    scales=(0.1,),
)


class TestExperimentPoint:
    def test_point_id_is_filesystem_safe_and_unique(self):
        points = SweepSpec(
            scenarios=("usemem-scenario", "many-vms:n=4"),
            policies=("greedy", "smart-alloc:P=2", "smart-alloc:P=4"),
            seeds=(1, 2),
            scales=(0.1, 0.25),
        ).expand()
        ids = [p.point_id for p in points]
        assert len(set(ids)) == len(ids)
        for point_id in ids:
            assert "/" not in point_id and ":" not in point_id
            assert "," not in point_id and "=" not in point_id

    def test_dict_round_trip(self):
        point = ExperimentPoint("scenario-1", "greedy", seed=3, scale=0.5)
        assert ExperimentPoint.from_dict(point.to_dict()) == point

    def test_validation(self):
        with pytest.raises(ExperimentError):
            ExperimentPoint("", "greedy", seed=1)
        for scale in (0, float("nan"), float("inf")):
            with pytest.raises(ExperimentError):
                ExperimentPoint("scenario-1", "greedy", seed=1, scale=scale)


class TestSweepSpec:
    def test_expand_is_full_cross_product(self):
        spec = SweepSpec(
            scenarios=("a", "b"), policies=("p", "q", "r"),
            seeds=(1, 2), scales=(0.1, 1.0),
        )
        points = spec.expand()
        assert len(points) == spec.size == 2 * 3 * 2 * 2
        assert len(set(points)) == len(points)
        # Scenario is the outermost axis, seeds the innermost.
        assert points[0].scenario == "a" and points[-1].scenario == "b"
        assert points[0].seed == 1 and points[1].seed == 2

    def test_empty_axes_rejected(self):
        with pytest.raises(ExperimentError):
            SweepSpec(scenarios=(), policies=("p",), seeds=(1,))
        with pytest.raises(ExperimentError):
            SweepSpec(scenarios=("a",), policies=(), seeds=(1,))
        with pytest.raises(ExperimentError):
            SweepSpec(scenarios=("a",), policies=("p",), seeds=())

    @pytest.mark.parametrize("scale", [0.0, float("nan"), float("inf")])
    def test_bad_scale_rejected(self, scale):
        with pytest.raises(ExperimentError, match="scale must be finite"):
            SweepSpec(scenarios=("a",), policies=("p",), seeds=(1,), scales=(scale,))

    def test_duplicates_rejected(self):
        with pytest.raises(ExperimentError):
            SweepSpec(scenarios=("a", "a"), policies=("p",), seeds=(1,))

    def test_dict_round_trip(self):
        assert SweepSpec.from_dict(TINY.to_dict()) == TINY


class TestResultStore:
    def test_save_load_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "results")
        point = TINY.expand()[0]
        result = execute_point(point)
        path = store.save(point, result)
        assert path.exists()
        assert store.contains(point)
        loaded = store.load(point)
        assert loaded.fingerprint() == result.fingerprint()

    def test_missing_point_raises(self, tmp_path):
        store = ResultStore(tmp_path)
        with pytest.raises(ExperimentError):
            store.load(TINY.expand()[0])

    def test_points_and_missing(self, tmp_path):
        store = ResultStore(tmp_path)
        points = TINY.expand()
        assert store.missing(points) == list(points)
        result = execute_point(points[0])
        store.save(points[0], result)
        assert store.points() == [points[0]]
        assert store.missing(points) == list(points[1:])
        assert len(store) == 1

    def test_corrupt_file_rejected(self, tmp_path):
        store = ResultStore(tmp_path)
        point = TINY.expand()[0]
        store.root.mkdir(parents=True, exist_ok=True)
        store.path_for(point).write_text("{not json")
        with pytest.raises(ExperimentError):
            store.load(point)

    def test_truncated_envelope_rejected_with_experiment_error(self, tmp_path):
        """A file cut mid-write is unreadable, not a crash with KeyError."""
        store = ResultStore(tmp_path)
        point = TINY.expand()[0]
        result = execute_point(point)
        full = store.save(point, result).read_text()
        store.path_for(point).write_text(full[: len(full) // 2])
        with pytest.raises(ExperimentError):
            store.load(point)
        # Valid JSON but a gutted envelope is equally unreadable.
        store.path_for(point).write_text('{"format_version": 1, "point": {}}')
        with pytest.raises(ExperimentError):
            store.load(point)

    def test_load_all_skips_corrupt_files_with_one_warning(self, tmp_path):
        """However many files are torn, bulk reads warn exactly once."""
        store = ResultStore(tmp_path)
        points = TINY.expand()
        good = execute_point(points[0])
        store.save(points[0], good)
        store.save(points[1], execute_point(points[1]))
        store.save(points[2], execute_point(points[2]))
        store.path_for(points[1]).write_text("{truncated")
        store.path_for(points[2]).write_text("{truncated")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            loaded = store.load_all()
        messages = [str(w.message) for w in caught]
        assert len(messages) == 1, messages
        assert "skipped 2 unreadable result file(s)" in messages[0]
        assert "e.g." in messages[0]  # an example path for debugging
        assert list(loaded) == [points[0]]
        assert loaded[points[0]].fingerprint() == good.fingerprint()

    def test_save_survives_interrupted_write(self, tmp_path, monkeypatch):
        """A save that dies between write and rename leaves no debris.

        The temp file is fsynced then os.replace'd onto the final name;
        if the process dies in between, readers must see either nothing
        or the complete file — and the failure path must clean up the
        temp file rather than litter the archive.
        """
        import repro.experiments.store as store_mod

        store = ResultStore(tmp_path)
        point = TINY.expand()[0]
        result = execute_point(point)

        def exploding_replace(src, dst):
            raise OSError("killed between fsync and rename")

        monkeypatch.setattr(store_mod.os, "replace", exploding_replace)
        with pytest.raises(OSError):
            store.save(point, result)
        monkeypatch.undo()
        assert not store.contains(point)
        assert list(tmp_path.glob("*.tmp")) == []
        # And a real save still lands atomically afterwards.
        store.save(point, result)
        assert store.load(point).fingerprint() == result.fingerprint()


class TestBackends:
    def test_create_backend(self):
        from repro.experiments import RemoteBackend

        assert set(available_backends()) == {"serial", "process", "remote"}
        assert isinstance(create_backend("serial"), SerialBackend)
        backend = create_backend("process", max_workers=2)
        assert isinstance(backend, ProcessPoolBackend)
        assert backend.max_workers == 2
        remote = create_backend("remote", max_workers=3, lease_expiry_s=1.5)
        assert isinstance(remote, RemoteBackend)
        assert remote.num_workers == 3
        assert remote.lease_expiry_s == 1.5
        with pytest.raises(ExperimentError):
            create_backend("quantum")
        with pytest.raises(ExperimentError):
            create_backend("serial", bogus_option=1)
        with pytest.raises(ExperimentError):
            ProcessPoolBackend(max_workers=0)
        with pytest.raises(ExperimentError):
            RemoteBackend(num_workers=0)

    def test_serial_backend_preserves_order_and_reports(self):
        points = TINY.expand()
        seen = []
        results = SerialBackend().run(
            points, on_result=lambda p, r: seen.append(p)
        )
        assert seen == list(points)
        assert [r.policy_spec for r in results] == [p.policy for p in points]
        assert [r.seed for r in results] == [p.seed for p in points]

    def test_process_backend_matches_serial_bit_for_bit(self):
        """The acceptance criterion: parallel == serial, per point."""
        points = TINY.expand()
        serial = SerialBackend().run(points)
        parallel = ProcessPoolBackend(max_workers=2).run(points)
        assert len(parallel) == len(serial)
        for point, s, p in zip(points, serial, parallel):
            assert p.fingerprint() == s.fingerprint(), point

    def test_process_backend_empty_input(self):
        assert ProcessPoolBackend(max_workers=1).run([]) == []

    def test_process_backend_propagates_worker_errors(self):
        bad = [ExperimentPoint("no-such-scenario", "greedy", seed=1, scale=0.1)]
        with pytest.raises(Exception):
            ProcessPoolBackend(max_workers=1).run(bad)

    @pytest.mark.skipif(
        (os.cpu_count() or 1) < 4,
        reason="parallel speedup needs >= 4 CPU cores",
    )
    def test_process_backend_speedup(self):
        """>= 2x wall-clock speedup on a 4-worker sweep of 8+ points."""
        import time

        spec = SweepSpec(
            scenarios=("usemem-scenario", "scenario-2"),
            policies=("greedy", "smart-alloc:P=2"),
            seeds=(1, 2),
            scales=(0.25,),
        )
        points = spec.expand()
        assert len(points) >= 8
        start = time.perf_counter()
        SerialBackend().run(points)
        serial_s = time.perf_counter() - start
        start = time.perf_counter()
        ProcessPoolBackend(max_workers=4).run(points)
        parallel_s = time.perf_counter() - start
        assert parallel_s < serial_s / 2, (
            f"expected >=2x speedup, got {serial_s / parallel_s:.2f}x"
        )


class TestRunSweep:
    def test_results_in_expansion_order(self):
        outcome = run_sweep(TINY)
        assert tuple(outcome.results) == TINY.expand()
        assert outcome.executed == TINY.expand()
        assert outcome.reused == ()

    def test_store_makes_sweeps_resumable(self, tmp_path):
        store = ResultStore(tmp_path)
        first = run_sweep(TINY, store=store)
        assert len(first.executed) == TINY.size
        second = run_sweep(TINY, store=store)
        assert second.executed == ()
        assert len(second.reused) == TINY.size
        for point, result in second.results.items():
            assert result.fingerprint() == first.results[point].fingerprint()

    def test_resume_reruns_corrupted_points_instead_of_crashing(self, tmp_path):
        """A truncated point JSON is skipped with a warning and re-run."""
        store = ResultStore(tmp_path)
        first = run_sweep(TINY, store=store)
        points = TINY.expand()
        # Simulate a sweep killed mid-write: one file is truncated, one
        # is outright garbage.
        full = store.path_for(points[1]).read_text()
        store.path_for(points[1]).write_text(full[: len(full) // 3])
        store.path_for(points[2]).write_text("{definitely not json")

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            second = run_sweep(TINY, store=store)
        resume_warnings = [
            str(w.message) for w in caught if "unreadable" in str(w.message)
        ]
        # One consolidated warning for both bad files, with an example.
        assert len(resume_warnings) == 1, resume_warnings
        assert "re-running 2 point(s)" in resume_warnings[0]

        assert set(second.executed) == {points[1], points[2]}
        assert set(second.reused) == {points[0], points[3]}
        # The re-run overwrote the bad files with good ones.
        third = run_sweep(TINY, store=store)
        assert third.executed == ()
        for point, result in third.results.items():
            assert result.fingerprint() == first.results[point].fingerprint()

    def test_fresh_ignores_store(self, tmp_path):
        store = ResultStore(tmp_path)
        run_sweep(TINY, store=store)
        again = run_sweep(TINY, store=store, resume=False)
        assert len(again.executed) == TINY.size

    def test_partial_store_runs_only_missing(self, tmp_path):
        store = ResultStore(tmp_path)
        points = TINY.expand()
        store.save(points[0], execute_point(points[0]))
        outcome = run_sweep(TINY, store=store)
        assert outcome.reused == (points[0],)
        assert outcome.executed == points[1:]

    def test_progress_callback_sees_every_point(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save(TINY.expand()[0], execute_point(TINY.expand()[0]))
        calls = []
        run_sweep(
            TINY, store=store,
            progress=lambda p, r, reused: calls.append((p, reused)),
        )
        assert len(calls) == TINY.size
        assert sum(1 for _, reused in calls if reused) == 1

    def test_dead_lettered_points_surface_in_outcome(self):
        """A backend that gives up on a point reports it via `failed`."""
        from repro.experiments.backends import ExecutionBackend

        points = TINY.expand()
        doomed = points[1]

        class PartialBackend(ExecutionBackend):
            name = "partial"

            def run(self, pts, *, on_result=None, on_failure=None):
                out = []
                for point in pts:
                    if point == doomed:
                        on_failure(point, "retry budget exhausted")
                        out.append(None)
                        continue
                    result = execute_point(point)
                    if on_result is not None:
                        on_result(point, result)
                    out.append(result)
                return out

        outcome = run_sweep(TINY, backend=PartialBackend())
        assert not outcome.ok
        assert set(outcome.failed) == {doomed}
        assert "retry budget exhausted" in outcome.failed[doomed]
        assert doomed not in outcome.results
        assert len(outcome.results) == TINY.size - 1

    def test_select_and_by_policy(self):
        outcome = run_sweep(TINY)
        greedy = outcome.select(policy="greedy")
        assert len(greedy) == 2
        by_policy = outcome.by_policy("usemem-scenario", seed=2)
        assert list(by_policy) == ["greedy", "no-tmem"]
        assert all(r.seed == 2 for r in by_policy.values())


class TestAggregation:
    def test_aggregate_and_render(self):
        from repro.analysis.aggregate import aggregate_sweep, render_aggregate_table

        outcome = run_sweep(TINY)
        aggregates = aggregate_sweep(outcome.results)
        assert len(aggregates) == 2  # one cell per policy
        by_policy = {a.policy: a for a in aggregates}
        assert set(by_policy) == {"greedy", "no-tmem"}
        greedy = by_policy["greedy"]
        assert greedy.seeds == (1, 2)
        assert greedy.mean_runtime_s > 0
        assert greedy.std_runtime_s >= 0
        assert greedy.mean_fairness is not None
        assert by_policy["no-tmem"].mean_fairness is None
        table = render_aggregate_table(aggregates, title="T")
        assert "greedy" in table and "no-tmem" in table and "T" in table

    def test_aggregate_empty_rejected(self):
        from repro.analysis.aggregate import aggregate_sweep
        from repro.errors import AnalysisError

        with pytest.raises(AnalysisError):
            aggregate_sweep({})
