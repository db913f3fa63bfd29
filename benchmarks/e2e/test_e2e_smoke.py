"""Smoke test of the end-to-end benchmark in this directory (a few seconds).

Checks that run.py's workload and metric names match BENCHMARK.json,
that tracing leaves a run's fingerprint unchanged, and that one child
repetition, plain and traced, yields every metric with its unit.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import run as bench
from layers import Tracer
from rep import build

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

#: A usemem run small enough for the smoke test (about 0.1 s).
SMALL = bench.Run("smoke", "usemem-scenario", 0.25, tmem_mb=1024)


def _table(entries):
    return {entry["name"]: (entry["unit"], entry["better"]) for entry in entries}


def test_names_match_benchmark_json():
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert _table(SPEC["end_to_end"]) == bench.END_TO_END
    assert _table(SPEC["per_layer"]) == bench.PER_LAYER
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(UNIT.fullmatch(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])


def test_tracing_leaves_the_fingerprint_unchanged():
    job = SMALL.job(seed=5, engine="batched", trace=False, spans=None)
    plain = build(job).run()
    with Tracer() as tracer:
        traced = build(job).run()
        layers = tracer.summary()
    assert traced.fingerprint() == plain.fingerprint()
    assert layers["guest"]["calls"] > 0 and layers["tmem"]["calls"] > 0
    assert layers["remote"]["calls"] == 0
    from repro.guest.kernel import GuestKernel

    assert not hasattr(GuestKernel.access, "__wrapped__")


def test_one_child_rep_gives_every_metric_with_its_unit():
    records = []
    for traced in (False, True):
        data, error = bench.run_child(SMALL.job(5, "batched", traced, None))
        assert error is None
        records.append({"label": SMALL.label, "traced": traced, "warmup": False, "ok": True,
                        **data})
    workload = bench.Workload("smoke", SMALL)
    end_to_end = bench.end_to_end_metrics(workload, records)
    for name, (unit, _) in bench.END_TO_END.items():
        assert end_to_end[name]["unit"] == unit
        assert end_to_end[name]["value"] > 0
    per_layer = bench.per_layer_metrics(workload, records)
    assert {name: s["unit"] for name, s in per_layer.items()} == {
        name: unit for name, (unit, _) in {**bench.PER_LAYER, **bench.LAYER_CONTEXT}.items()
    }
    assert per_layer["guest.calls"]["value"] > 0
