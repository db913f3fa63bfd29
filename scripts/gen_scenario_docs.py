#!/usr/bin/env python
"""Generate docs/scenario-language.md from the live registries.

The scenario language is documented *by construction*: every scenario
family and workload kind registers parameter metadata (derived from its
factory/constructor signature plus explicit per-parameter docs), and
this script renders that metadata into the reference manual.  The docs
cannot drift from the code — CI runs ``--check``, which fails when the
committed file differs from a fresh render, when any registered
family/workload is missing parameter documentation or when a family
parameter has no declared bound.

Usage::

    python scripts/gen_scenario_docs.py            # rewrite the manual
    python scripts/gen_scenario_docs.py --check    # CI freshness gate
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.scenarios import dsl as _dsl  # noqa: E402  (sys.path setup)
from repro.scenarios.registry import (  # noqa: E402
    paper_scenario_names,
    registered_scenarios,
)
from repro.workloads.registry import WORKLOAD_REGISTRY  # noqa: E402

assert _dsl  # imported to fail fast when the DSL package breaks

OUTPUT = REPO_ROOT / "docs" / "scenario-language.md"

HEADER = """\
# The scenario language

<!-- GENERATED FILE - do not edit by hand.
     Regenerate with: python scripts/gen_scenario_docs.py
     CI runs `gen_scenario_docs.py --check` and fails when this file is
     stale, any registered family/workload lacks parameter docs or any
     family parameter lacks a bound. -->

Scenario documents are YAML files compiled by `smartmem compile`,
validated by `smartmem lint`, inspected with `smartmem plan` and run
with `smartmem run <file>.yml`.  A document is either **family mode**
(delegate to a registered scenario family — fingerprint-identical to
the equivalent `name:key=value` spec string) or **explicit mode**
(spell out VMs, jobs, cluster topology and fault plan).

`smartmem run <family>:<params>` compiles its flags as a family-mode
document, so flags and documents are checked by the same compiler and
fail with the same messages.

## Family mode

```yaml
family: many-vms        # a registered family (see tables below)
scale: 1.0              # optional size multiplier (1.0 = paper sizes)
params: {n: 8}          # family parameters
policy: smart-alloc     # optional: default policy for `smartmem run`
seed: 2019              # optional: default seed for `smartmem run`
cluster:                # optional: what the `smartmem run` cluster flags set
  nodes: 3              # --nodes: replicate a single-host family
  coordinator: equal-share          # --coordinator
  contended: true                   # --contended
  failures: ["node2@30"]            # --fail NODE@TIME
  migrations: ["n1.VM1@node3@40"]   # --migrate VM@NODE@TIME
  faults: ["node3@10-25"]           # --fault NODE@T1-T2[:failback=1]
  degradations: ["node1->node2@10-20:bw=0.5"]   # --degrade
```

With `nodes`, the block replicates a single-host family onto that many
nodes (`node1`..`nodeN`, VMs renamed `n<k>.<VM>`), exactly like
`repro.cluster.clusterize`.  Without `nodes`, its keys replace those
fields of a cluster-native family's topology (`cluster`, `contended`,
`faulty`, ...); `faults` and `degradations` together replace the
family's fault plan.

## Explicit mode

```yaml
scenario: my-name            # scenario name (required)
description: what it shows   # optional prose
tmem_mb: 1024                # host tmem pool (required)
host_memory_mb: 4096         # optional; default = VM RAM + tmem + 256
max_duration_s: 600          # optional run deadline (default 3600)
policy: smart-alloc          # optional run defaults, as in family mode
seed: 2019
vms:
  - name: VM1
    ram_mb: 512              # required per VM
    vcpus: 1                 # optional (default 1)
    swap_mb: 2048            # optional (default 2048)
    jobs:
      - kind: usemem         # a workload kind (see tables below)
        params: {max_mb: 640}
        start_at: 5.0        # absolute start (optional)
        delay_after_previous: 0.0
        label: warmup        # optional display label
triggers:                    # optional cross-VM phase triggers
  - {watch_vm: VM1, phase_prefix: steady, start_vm: VM2}
stop_trigger:                # optional global stop
  {watch_vm: VM1, phase_prefix: done}
cluster:                     # optional multi-node topology
  nodes:
    - {name: node1, vms: [VM1], tmem_mb: 512, zone: rack-a}
  remote_spill: true
  contended: false
  coordinator: equal-share
  interconnect_latency_s: 25.0e-6
  interconnect_bandwidth_bytes_s: 1.25e9
  rebalance_interval_s: 2.0
  failures:                  # permanent node failures: NODE@TIME
    - "node1@30"
  migrations:                # live VM migrations: VM@NODE@TIME
    - "VM1@node2@10"
  faults:                    # transient faults: NODE@T1-T2[:failback=1]
    - "node2@10-25:failback=1"
  degradations:              # SRC->DST@T1-T2:bw=,lat=,loss=,partition=1
    - "node1->node2@10-20:bw=0.5,loss=0.05"
  retry_limit: 3             # graceful-degradation knobs
  backoff_base_s: 0.002
  backoff_factor: 2.0
  retry_deadline_s: 0.05
  breaker_threshold: 3
  breaker_cooldown_s: 5.0
```

Validation reports *every* problem as a positioned diagnostic
(`file:line:col: severity: message`): unknown keys and misspelled
parameters (with "did you mean" suggestions), job parameters of the
wrong type, infeasible host memory, fault windows colliding with
permanent failures, migrations into down nodes, and schedules falling
after the run deadline.  Errors in run flags print as
`<command line>: error: ... (at <key>)`.

Trace workloads resolve relative `path` parameters against the
document's directory, so committed examples replay their committed
traces from any working directory.

The parameter tables below are generated from the registries — the
types and defaults come from the factory signatures themselves.  Each
family parameter's bound is declared once at registration and checked
before the family's factory runs; a value outside it fails at
`params.<key>`.
"""


def _table(parameters, *, bounds: bool = False) -> list:
    """A markdown parameter table; *bounds* adds a bound column."""
    bound_head, bound_rule = ("bound | ", "---|") if bounds else ("", "")
    lines = [
        f"| parameter | type | default | {bound_head}units | description |",
        f"|---|---|---|{bound_rule}---|---|",
    ]
    for info in parameters:
        bound = f"`{info.bound.text}`" if info.bound else "—"
        bound_cell = f"{bound} | " if bounds else ""
        units = info.units or "—"
        doc = info.doc or "—"
        lines.append(
            f"| `{info.name}` | {info.type} | `{info.default_repr()}` "
            f"| {bound_cell}{units} | {doc} |"
        )
    return lines


def render() -> str:
    """Render the full manual from the live registries."""
    missing = []
    lines = [HEADER]

    lines.append("## Scenario families\n")
    lines.append(
        "Each family compiles from `family:` documents and from "
        "`name:key=value` spec strings; both routes call the same factory "
        "and produce identical fingerprints.\n"
    )
    paper = set(paper_scenario_names())
    for name, entry in sorted(registered_scenarios().items()):
        tag = " *(paper scenario)*" if name in paper else ""
        lines.append(f"### `{name}`{tag}\n")
        lines.append(entry.summary + "\n")
        parameters = entry.parameter_info()
        if not parameters:
            lines.append(
                "No parameters besides `scale`.\n"
            )
            continue
        for info in parameters:
            if not info.doc:
                missing.append(f"scenario family {name!r} parameter {info.name!r}")
            if info.bound is None:
                missing.append(
                    f"scenario family {name!r} parameter {info.name!r} (bound)"
                )
        lines.extend(_table(parameters, bounds=True))
        lines.append("")

    lines.append("## Workload kinds\n")
    lines.append(
        "Workloads are instantiated per job from `kind` + `params`; the "
        "constructor signature is the schema.\n"
    )
    for kind in sorted(WORKLOAD_REGISTRY):
        workload_cls = WORKLOAD_REGISTRY[kind]
        lines.append(f"### `{kind}`\n")
        doc = (workload_cls.__doc__ or "").strip().splitlines()
        if doc:
            lines.append(doc[0] + "\n")
        if workload_cls.uses_cleancache:
            lines.append(
                "File-backed: reads go through the page cache and evicted "
                "clean pages spill into an ephemeral cleancache tmem pool.\n"
            )
        parameters = workload_cls.parameter_info()
        for info in parameters:
            if not info.doc:
                missing.append(f"workload {kind!r} parameter {info.name!r}")
        lines.extend(_table(parameters))
        lines.append("")

    if missing:
        raise SystemExit(
            "parameter documentation or bound missing for:\n  "
            + "\n  ".join(missing)
        )
    return "\n".join(lines).rstrip() + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check", action="store_true",
        help="fail (exit 1) when the committed manual is stale",
    )
    args = parser.parse_args(argv)

    content = render()
    if args.check:
        if not OUTPUT.exists():
            print(f"{OUTPUT} does not exist; run scripts/gen_scenario_docs.py",
                  file=sys.stderr)
            return 1
        if OUTPUT.read_text() != content:
            print(
                f"{OUTPUT} is stale; run scripts/gen_scenario_docs.py and "
                "commit the result",
                file=sys.stderr,
            )
            return 1
        print(f"{OUTPUT} is up to date")
        return 0

    OUTPUT.parent.mkdir(parents=True, exist_ok=True)
    OUTPUT.write_text(content)
    print(f"wrote {OUTPUT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
