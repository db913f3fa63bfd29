"""What every registered scenario builds, pinned by the hash of its repr.

``tests/data/family_specs.json`` holds the SHA-256 of ``repr(spec)`` for
every registered scenario at scales 0.1 and 1.0: at its defaults and,
for each parametric family, at one non-default spec string.  The
int-valued spellings of float parameters (``failover:fail_at=30``,
``churn:wave_s=40``, ``migrate:at=20``) are pinned too, so a change in
what reaches a factory (an int turned into a float) shows.  A change to
how the families are written must leave every digest as it is.

Re-record (only when a spec change is intended) with::

    PYTHONPATH=src python tests/test_family_specs.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.scenarios.dsl.compiler import compile_spec_string
from repro.scenarios.registry import registered_scenarios, scenario_by_name

PIN_PATH = Path(__file__).parent / "data" / "family_specs.json"
SCALES = (0.1, 1.0)
#: One non-default spec string per parametric family, plus the
#: int-valued spellings of float parameters.
NON_DEFAULT = (
    "many-vms:n=3,ram_mb=256",
    "churn:n=5,wave_s=12.5,per_wave=3",
    "bursty:n=3,spikes=2,spike_mb=512",
    "cluster:nodes=3,vms_per_node=1,ram_mb=384",
    "hotnode:nodes=4,ram_mb=384,hot_vms=3",
    "contended:nodes=2,ram_mb=384,hot_vms=1",
    "failover:nodes=4,ram_mb=384,fail_at=12.5",
    "faulty:nodes=4,ram_mb=384,fail_at=8,down_s=6",
    "flaky:nodes=4,ram_mb=384,fail_at=8,down_s=6",
    "migrate:nodes=3,ram_mb=384,at=7.5",
    "shard:nodes=2,vms_per_node=3,ram_mb=384",
    "failover:fail_at=30",
    "churn:wave_s=40",
    "migrate:at=20",
)


def spec_strings():
    return (*sorted(registered_scenarios()), *NON_DEFAULT)


def digest(spec_string: str, scale: float) -> str:
    spec = scenario_by_name(spec_string, scale=scale)
    return hashlib.sha256(repr(spec).encode()).hexdigest()


def record() -> dict:
    return {
        f"{spec_string}|{scale}": digest(spec_string, scale)
        for spec_string in spec_strings()
        for scale in SCALES
    }


@pytest.fixture(scope="module")
def pins() -> dict:
    return json.loads(PIN_PATH.read_text())


def test_every_registered_scenario_is_pinned(pins):
    pinned = {key.split("|")[0].split(":")[0] for key in pins}
    assert pinned == set(registered_scenarios())
    assert set(pins) == {
        f"{spec_string}|{scale}"
        for spec_string in spec_strings()
        for scale in SCALES
    }


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("spec_string", spec_strings())
def test_spec_repr_is_unchanged(pins, spec_string, scale):
    assert digest(spec_string, scale) == pins[f"{spec_string}|{scale}"], (
        f"{spec_string} at scale {scale} no longer builds the pinned spec"
    )


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("spec_string", spec_strings())
def test_compiled_spec_string_builds_the_pinned_spec(pins, spec_string, scale):
    """The path ``run``, ``sweep`` and the sweep workers take."""
    spec = compile_spec_string(spec_string, scale).spec
    assert hashlib.sha256(repr(spec).encode()).hexdigest() == (
        pins[f"{spec_string}|{scale}"]
    ), f"{spec_string} at scale {scale} compiles to another spec"


if __name__ == "__main__":
    PIN_PATH.write_text(json.dumps(record(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {PIN_PATH}")
