"""Pinned scenario fingerprints: the engine overhaul changes nothing.

``tests/data/scenario_fingerprints.json`` records the
``ScenarioResult.fingerprint()`` of every paper policy on the usemem
scenario, scenarios 1-3 and a three-node cluster, captured at scale 0.1
/ seed 2019 *before* the event-loop overhaul (slab events, native
recurring timers, VM fast-forward) and the duplicate-tolerant burst
planner landed.  Every simulated quantity — run times, traces, fault
counters, spill statistics — must hash identically after it: the
overhaul is a pure mechanical speedup, not a semantic change.  The
``contended:`` points, recorded before the link FIFO went lazy, pin
remote spill over a contended interconnect (link queue traces and
per-link counters included) the same way.

If a future PR intentionally changes simulation semantics, re-record
the pins with::

    PYTHONPATH=src python tests/data/record_fingerprints.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.scenarios.library import PAPER_POLICIES
from repro.scenarios.registry import scenario_by_name
from repro.scenarios.runner import run_scenario

PIN_PATH = Path(__file__).parent / "data" / "scenario_fingerprints.json"
PIN_SCALE = 0.1
PIN_SEED = 2019
PIN_SCENARIOS = (
    "usemem-scenario",
    "scenario-1",
    "scenario-2",
    "scenario-3",
    "cluster:nodes=3",
    "contended:",
)


@pytest.fixture(scope="module")
def pins() -> dict:
    assert PIN_PATH.exists(), (
        f"{PIN_PATH} is missing; record it with "
        "PYTHONPATH=src python tests/data/record_fingerprints.py"
    )
    return json.loads(PIN_PATH.read_text())


def test_pin_file_covers_every_combination(pins):
    expected = {
        f"{scenario}|{policy}"
        for scenario in PIN_SCENARIOS
        for policy in PAPER_POLICIES
    }
    assert expected == set(pins)


@pytest.mark.parametrize("scenario", PIN_SCENARIOS)
def test_fingerprints_match_pins(pins, scenario):
    spec = scenario_by_name(scenario, scale=PIN_SCALE)
    mismatched = []
    for policy in PAPER_POLICIES:
        result = run_scenario(spec, policy, seed=PIN_SEED)
        if result.fingerprint() != pins[f"{scenario}|{policy}"]:
            mismatched.append(policy)
    assert not mismatched, (
        f"{scenario}: fingerprints diverged from the pre-overhaul pins "
        f"under {mismatched} — the engine/planner changes are no longer "
        "bit-identical"
    )


EPOCH_PIN_PATH = (
    Path(__file__).parent / "data" / "scenario_fingerprints_epoch.json"
)
EPOCH_PIN_SCENARIOS = (
    "cluster:nodes=3",
    "cluster:nodes=4",
    "hotnode:",
    "contended:",
)


@pytest.fixture(scope="module")
def epoch_pins() -> dict:
    assert EPOCH_PIN_PATH.exists(), (
        f"{EPOCH_PIN_PATH} is missing; record it with "
        "PYTHONPATH=src python tests/data/record_fingerprints.py"
    )
    return json.loads(EPOCH_PIN_PATH.read_text())


def test_epoch_pin_file_covers_every_combination(epoch_pins):
    expected = {
        f"{scenario}|{policy}"
        for scenario in EPOCH_PIN_SCENARIOS
        for policy in PAPER_POLICIES
    }
    assert expected == set(epoch_pins)


@pytest.mark.parametrize("scenario", EPOCH_PIN_SCENARIOS)
def test_epoch_engine_matches_pins(epoch_pins, scenario):
    """The epoch cluster engine's aggregates are pinned per scenario.

    Epoch results intentionally differ from the exact engine's
    (cross-node effects are window-quantized), so they carry their own
    pin file.  The engine's contract makes the pins independent of the
    shard count; recording and checking at one inline shard therefore
    covers every shard configuration (tests/test_epoch.py asserts the
    invariance itself).  Re-record after intentional semantic changes
    with: PYTHONPATH=src python tests/data/record_fingerprints.py
    """
    spec = scenario_by_name(scenario, scale=PIN_SCALE)
    mismatched = []
    for policy in PAPER_POLICIES:
        result = run_scenario(
            spec,
            policy,
            shards=1,
            seed=PIN_SEED,
            inline=True,
            cluster_engine="epoch",
        )
        if (
            result.aggregate_fingerprint()
            != epoch_pins[f"{scenario}|{policy}"]
        ):
            mismatched.append(policy)
    assert not mismatched, (
        f"{scenario}: epoch-engine aggregates diverged from the pins "
        f"under {mismatched} — the window protocol's results drifted"
    )


def test_fast_forward_off_matches_pins_on_usemem(pins):
    """The pins hold with fast-forward disabled too (same event order)."""
    from repro.scenarios.runner import ScenarioRunner

    spec = scenario_by_name("usemem-scenario", scale=PIN_SCALE)
    runner = ScenarioRunner(spec, "greedy", seed=PIN_SEED)
    runner.engine._fast_forward_enabled = False
    result = runner.run()
    assert result.fingerprint() == pins["usemem-scenario|greedy"]
