#!/usr/bin/env python3
"""Quickstart: run one paper scenario under three policies and compare.

This is the smallest end-to-end use of the library: build Scenario 1
(three 1 GB VMs running in-memory-analytics twice over 1 GB of tmem),
run it under the no-tmem baseline, the default greedy allocator and
SmarTmem's smart-alloc policy, and print the per-VM running times and the
improvement of smart-alloc over both baselines.

Run with::

    python examples/quickstart.py [--scale 0.25] [--seed 2019]

The default scale (0.25) keeps the run under a few seconds; use
``--scale 1.0`` for the paper-sized configuration.

Going further:

* Multi-node runs and **sharded execution** (one engine per node group
  in worker processes, ``smartmem run shard:nodes=4 --shards auto``) —
  see README.md "Architecture: Node and Cluster layers" / "Sharded
  execution" and the ``shards`` argument of :func:`run_scenario`.
"""

from __future__ import annotations

import argparse

from repro import run_scenario, scenario_1
from repro.analysis.metrics import improvement_percent
from repro.analysis.report import render_runtime_table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.25,
                        help="size scale factor (1.0 = paper sizes)")
    parser.add_argument("--seed", type=int, default=2019)
    args = parser.parse_args()

    spec = scenario_1(scale=args.scale)
    print(f"Scenario: {spec.name} — {spec.description}")
    print(f"Scale: {args.scale}  (tmem pool = {spec.tmem_mb} MB)\n")

    policies = ["no-tmem", "greedy", "smart-alloc:P=0.75"]
    results = {}
    for policy in policies:
        print(f"running under {policy} ...")
        results[policy] = run_scenario(spec, policy, seed=args.seed)

    print()
    print(render_runtime_table(results, title="Per-VM running times"))

    smart = results["smart-alloc:P=0.75"]
    for baseline in ("no-tmem", "greedy"):
        base = results[baseline]
        gains = [
            improvement_percent(base.runtime_of(vm, run.run_index),
                                smart.runtime_of(vm, run.run_index))
            for vm in base.vm_names()
            for run in base.vm(vm).runs
        ]
        print(f"\nsmart-alloc(0.75%) vs {baseline}: "
              f"best {max(gains):+.1f}%, worst {min(gains):+.1f}%")

    print("\nDisk faults avoided by tmem (sum over all VMs):")
    for policy, result in results.items():
        print(f"  {policy:20s} disk faults = {result.total_disk_faults():6d}   "
              f"tmem faults = {result.total_tmem_faults():6d}")


if __name__ == "__main__":
    main()
