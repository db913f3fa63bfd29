"""Command-line front end.

``python -m repro`` (or the ``smartmem`` console script) runs one of the
paper's scenarios under one or more policies and prints the reproduced
running-time table, tmem usage traces and policy comparison.

Examples
--------
Run Scenario 1 at a quarter scale under the default policy set::

    smartmem run scenario-1 --scale 0.25

Run the Usemem scenario under greedy and smart-alloc(2%) only::

    smartmem run usemem-scenario --policy greedy --policy smart-alloc:P=2

List scenarios and policies::

    smartmem list

Run a multi-seed sweep of every paper scenario in parallel worker
processes, archiving one JSON per (scenario, policy, seed, scale) point,
and print the cross-seed aggregate table::

    smartmem sweep --seeds 5 --backend process --max-workers 4 \\
        --results-dir sweep-results

Re-running the same sweep resumes from the archived results instead of
re-simulating.  Parametric scenario families beyond the paper's four are
addressed with the same ``name:key=value`` syntax as policies::

    smartmem sweep --scenario many-vms:n=8 --scenario churn --scale 0.25

Run a sweep distributed over remote workers: start the lease-based job
queue on one host, attach any number of workers (machines may join and
leave mid-sweep; leases expire and retry), and let the server dedupe
results into the store::

    smartmem serve --num-seeds 5 --results-dir sweep-results
    smartmem worker --url http://server:8734        # on each worker host

Or let the sweep command host server + local worker threads itself —
same HTTP protocol, zero setup::

    smartmem sweep --backend remote --num-workers 4
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Any, Dict, List, Optional, Sequence

from .analysis.aggregate import aggregate_sweep, render_aggregate_table
from .analysis.cluster import render_cluster_table
from .analysis.figures import tmem_usage_figure
from .analysis.metrics import mean_fairness
from .analysis.report import render_figure_series, render_runtime_table
from .analysis.tables import table1_statistics, table2_scenarios
from .cluster.sharded import ShardedClusterRunner, resolve_shards
from .core.coordinator import COORDINATORS
from .core.policy import POLICIES, create_policy
from .errors import ClusterError, ExperimentError, PolicyError, ScenarioError
from .scenarios.library import PAPER_POLICIES, all_scenarios
from .scenarios.registry import (
    paper_scenario_names,
    registered_scenarios,
)
from .scenarios.results import ScenarioResult
from .scenarios.runner import NO_TMEM_POLICY
from .workloads.registry import WORKLOADS

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smartmem",
        description="SmarTmem reproduction: run tmem-policy scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_shard_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--shards", type=str, default=None, metavar="N|auto",
            help="shard cluster scenarios: one engine per node group in "
                 "worker processes ('auto' = one per node, capped at the "
                 "CPU count; the process sweep backend runs them inline in "
                 "each pool worker).  Results are bit-identical to the "
                 "shared engine; coupled topologies (spill, coordinator, "
                 "contention, failures, migrations) run the exact shared "
                 "engine in this process",
        )
        p.add_argument(
            "--cluster-engine", choices=("exact", "epoch"), default="exact",
            help="cluster execution engine: 'exact' (default; "
                 "bit-identical to the shared engine) or 'epoch' "
                 "(conservative lookahead windows — runs coupled topologies "
                 "in parallel, on one shard without --shards; deterministic "
                 "and shard-count invariant but not bit-identical to "
                 "'exact')",
        )

    run_p = sub.add_parser("run", help="run a scenario under one or more policies")
    run_p.add_argument(
        "scenario",
        help="scenario name (see 'smartmem list') or a .yml/.yaml "
             "scenario-DSL document",
    )
    run_p.add_argument(
        "--policy",
        action="append",
        dest="policies",
        default=None,
        help="policy spec, repeatable (default: the paper's policy set, "
             "or the document's policy for DSL files)",
    )
    run_p.add_argument("--scale", type=float, default=0.25,
                       help="size scale factor (1.0 = paper sizes; DSL "
                            "documents set their own scale)")
    run_p.add_argument("--seed", type=int, default=None,
                       help="simulation seed (default 2019, or the "
                            "document's seed for DSL files)")
    run_p.add_argument(
        "--nodes", type=int, default=1,
        help="replicate a single-host scenario onto an N-node cluster "
             "with remote-tmem spill (without it, the cluster flags "
             "replace a cluster-native scenario's own settings)",
    )
    run_p.add_argument(
        "--coordinator", type=str, default=None,
        help="cluster capacity coordinator "
             "(e.g. equal-share, pressure-prop:percent=15, "
             "spill-feedback:percent=15)",
    )
    run_p.add_argument(
        "--contended", action="store_true",
        help="model interconnect contention (per-link FIFO queueing) "
             "on the cluster",
    )
    run_p.add_argument(
        "--fail", action="append", dest="failures", default=None,
        metavar="NODE@TIME",
        help="fail a node mid-run, e.g. --fail node2@30 (repeatable; "
             "its VMs migrate to surviving nodes)",
    )
    run_p.add_argument(
        "--migrate", action="append", dest="migrations", default=None,
        metavar="VM@NODE@TIME",
        help="live-migrate a VM mid-run, e.g. --migrate n1.VM1@node2@20 "
             "(repeatable)",
    )
    run_p.add_argument(
        "--fault", action="append", dest="faults", default=None,
        metavar="NODE@T1-T2",
        help="transiently fail a node over [T1, T2), e.g. "
             "--fault node2@10-25 (repeatable; append :failback=1 to "
             "migrate its VMs back on rejoin)",
    )
    run_p.add_argument(
        "--degrade", action="append", dest="degradations", default=None,
        metavar="SRC->DST@T1-T2:OPTS",
        help="degrade a directed link over [T1, T2), e.g. --degrade "
             "'node1->node2@10-20:bw=0.1,loss=0.05,lat=0.002' or "
             "':partition=1' (repeatable)",
    )
    run_p.add_argument(
        "--check-invariants", action="store_true",
        help="run the inline cluster invariant checker at every "
             "statistics tick (page/capacity conservation, "
             "owner-holder liveness); fails loudly on violation",
    )
    add_shard_flags(run_p)
    run_p.add_argument("--traces", action="store_true",
                       help="also print per-VM tmem usage traces")
    run_p.add_argument("--fairness", action="store_true",
                       help="also print the mean Jain fairness per policy")

    def add_sweep_axes(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--scenario",
            action="append",
            dest="scenarios",
            default=None,
            help="scenario spec, repeatable (default: the paper's four); "
                 "families take parameters, e.g. many-vms:n=8",
        )
        p.add_argument(
            "--policy",
            action="append",
            dest="policies",
            default=None,
            help="policy spec, repeatable (default: the paper's policy set)",
        )
        p.add_argument(
            "--seed",
            action="append",
            dest="seeds",
            type=int,
            default=None,
            help="explicit seed, repeatable (overrides --num-seeds/--seed-base)",
        )
        p.add_argument("--num-seeds", type=int, default=3,
                       help="number of consecutive seeds (default 3)")
        p.add_argument("--seed-base", type=int, default=2019,
                       help="first seed when using --num-seeds (default 2019)")
        p.add_argument(
            "--scale",
            action="append",
            dest="scales",
            type=float,
            default=None,
            help="size scale factor, repeatable (default: 0.25)",
        )

    def add_lease_knobs(p: argparse.ArgumentParser) -> None:
        p.add_argument("--lease-expiry", type=float, default=30.0,
                       help="seconds without a heartbeat before a leased "
                            "point is reassigned (default 30)")
        p.add_argument("--max-attempts", type=int, default=5,
                       help="lease grants per point before it is "
                            "dead-lettered (default 5)")

    sweep_p = sub.add_parser(
        "sweep",
        help="run a scenarios x policies x seeds sweep and aggregate results",
    )
    add_sweep_axes(sweep_p)
    sweep_p.add_argument("--backend", choices=("serial", "process", "remote"),
                         default="serial", help="execution backend")
    sweep_p.add_argument("--max-workers", type=int, default=None,
                         help="worker processes for --backend process "
                              "(default: CPU count)")
    sweep_p.add_argument("--num-workers", type=int, default=2,
                         help="local worker threads for --backend remote "
                              "(default 2)")
    add_shard_flags(sweep_p)
    sweep_p.add_argument("--results-dir", type=str, default="sweep-results",
                         help="directory for per-point result JSON files "
                              "(default: sweep-results)")
    sweep_p.add_argument("--no-store", action="store_true",
                         help="keep results in memory only")
    sweep_p.add_argument("--fresh", action="store_true",
                         help="re-simulate every point even if archived")
    add_lease_knobs(sweep_p)

    serve_p = sub.add_parser(
        "serve",
        help="serve a sweep as a lease-based HTTP job queue for "
             "'smartmem worker' clients",
    )
    add_sweep_axes(serve_p)
    serve_p.add_argument("--results-dir", type=str, default="sweep-results",
                         help="directory results are deduped into "
                              "(default: sweep-results)")
    serve_p.add_argument("--fresh", action="store_true",
                         help="re-run every point even if archived")
    serve_p.add_argument("--host", type=str, default="127.0.0.1",
                         help="bind address (default 127.0.0.1; use 0.0.0.0 "
                              "for LAN workers)")
    serve_p.add_argument("--port", type=int, default=8734,
                         help="bind port (default 8734; 0 = ephemeral)")
    add_lease_knobs(serve_p)
    serve_p.add_argument("--url-file", type=str, default=None,
                         help="write the bound URL to this file once "
                              "listening (lets scripts discover an "
                              "ephemeral port)")
    serve_p.add_argument("--linger", type=float, default=2.0,
                         help="seconds to keep answering after the sweep "
                              "settles so polling workers see 'done' and "
                              "exit cleanly (default 2)")

    worker_p = sub.add_parser(
        "worker",
        help="lease and run experiment points from a 'smartmem serve' queue",
    )
    worker_p.add_argument("--url", required=True,
                          help="server base URL, e.g. http://host:8734")
    worker_p.add_argument("--id", dest="worker_id", default=None,
                          help="worker name shown in server logs "
                               "(default: host-pid)")
    worker_p.add_argument("--heartbeat-interval", type=float, default=2.0,
                          help="seconds between lease renewals (default 2)")
    worker_p.add_argument("--timeout", type=float, default=10.0,
                          help="per-request HTTP timeout in seconds "
                               "(default 10)")

    list_p = sub.add_parser(
        "list", help="list scenarios, registered policies and workload kinds"
    )
    list_p.add_argument(
        "--verbose", action="store_true",
        help="also print the parameters (name, type, default, bound, "
             "units, doc) of every scenario family, policy, coordinator "
             "and workload kind",
    )

    compile_p = sub.add_parser(
        "compile",
        help="compile a scenario-DSL document and print the resulting spec",
    )
    compile_p.add_argument("file", help="path to a .yml/.yaml DSL document")
    compile_p.add_argument("--json", action="store_true",
                           help="print the compiled spec as JSON")

    lint_p = sub.add_parser(
        "lint",
        help="validate scenario-DSL documents and report every diagnostic",
    )
    lint_p.add_argument("files", nargs="+",
                        help="paths to .yml/.yaml DSL documents")
    lint_p.add_argument("--strict", action="store_true",
                        help="exit non-zero on warnings too (CI mode)")

    plan_p = sub.add_parser(
        "plan",
        help="print the execution plan of a scenario-DSL document "
             "without running it",
    )
    plan_p.add_argument("file", help="path to a .yml/.yaml DSL document")
    plan_p.add_argument("--json", action="store_true",
                        help="print the plan as JSON instead of text")

    trace_p = sub.add_parser(
        "trace", help="record page-access traces for the 'trace' workload"
    )
    trace_sub = trace_p.add_subparsers(dest="trace_command", required=True)
    record_p = trace_sub.add_parser(
        "record",
        help="record a workload's step stream to a JSONL trace file",
    )
    record_p.add_argument("--out", required=True,
                          help="output JSONL trace path")
    record_p.add_argument(
        "--workload", default=None,
        help="record a synthetic workload by kind, e.g. --workload usemem",
    )
    record_p.add_argument(
        "--param", action="append", dest="params", default=None,
        metavar="KEY=VALUE",
        help="workload constructor parameter (repeatable; with --workload)",
    )
    record_p.add_argument(
        "--scenario", default=None,
        help="record one job of a scenario VM instead (scenario name or "
             "DSL document; reproduces the exact RNG stream of the run)",
    )
    record_p.add_argument("--vm", default=None,
                          help="VM name within --scenario")
    record_p.add_argument("--job", type=int, default=0,
                          help="job index within the VM (default 0)")
    record_p.add_argument("--scale", type=float, default=0.25,
                          help="scale for --scenario (default 0.25)")
    record_p.add_argument("--seed", type=int, default=2019,
                          help="RNG seed (default 2019)")

    tables_p = sub.add_parser("tables", help="print Tables I and II")
    tables_p.add_argument("--scale", type=float, default=1.0)

    return parser


def _print_parameter_rows(parameters) -> None:
    """Indented name/type/default/bound/units/doc rows under a list entry."""
    for info in parameters:
        bound = f" ({info.bound.text})" if info.bound else ""
        units = f" [{info.units}]" if info.units else ""
        doc = f"  {info.doc}" if info.doc else ""
        print(
            f"      {info.name}: {info.type} = {info.default_repr()}"
            f"{bound}{units}{doc}"
        )


def _print_entries(rows, verbose: bool) -> None:
    """``name  params: ...  summary`` per ``(name, infos, summary)`` row,
    each followed by its parameter rows when *verbose*."""
    for name, infos, summary in rows:
        params = ", ".join(info.name for info in infos) or "-"
        print(f"  {name:18s} params: {params:24s} {summary}")
        if verbose:
            _print_parameter_rows(infos)


def _registry_rows(registry):
    """The list rows of a class registry (policies, coordinators, ...)."""
    for name in registry.names():
        yield name, registry.parameter_info(name), registry.summary(name)


def _cmd_list(verbose: bool = False) -> int:
    """``smartmem list``: the paper's scenarios, then one line per scenario
    family, policy, coordinator and workload kind naming its parameters;
    ``--verbose`` adds each parameter's type, default, bound, units and
    doc, all read from the registries."""
    print("Scenarios (paper, Table II):")
    for name, spec in all_scenarios(scale=1.0).items():
        print(f"  {name:18s} {spec.description}")
    print()
    print("Scenario families (parametric, e.g. many-vms:n=8; "
          "'cluster'/'hotnode' run multi-node topologies):")
    paper = set(paper_scenario_names())
    _print_entries(
        (
            (name, entry.parameter_info(), entry.summary)
            for name, entry in sorted(registered_scenarios().items())
            if name not in paper
        ),
        verbose,
    )
    print()
    print("Policies (name:key=value,...; smart-alloc's P sets percent):")
    _print_entries(_registry_rows(POLICIES), verbose)
    print("  no-tmem            (baseline: tmem disabled in every guest)")
    print()
    print("Cluster coordinator policies (for multi-node topologies):")
    _print_entries(_registry_rows(COORDINATORS), verbose)
    print()
    print("Workload kinds:")
    _print_entries(_registry_rows(WORKLOADS), verbose)
    return 0


def _is_dsl_path(name: str) -> bool:
    return name.endswith((".yml", ".yaml"))


def _load_dsl(
    target: str,
    scale: Optional[float] = None,
    cluster: Optional[Dict[str, Any]] = None,
):
    """Compile the DSL document at path *target* or, given a *scale*, the
    spec string *target* with *cluster* as its ``cluster:`` block, as
    ``run``, ``sweep`` and the sweep workers compile it.

    Prints diagnostics on stderr; returns the CompiledScenario or None
    after printing errors.
    """
    from .scenarios.dsl import DslError, compile_file
    from .scenarios.dsl.compiler import compile_spec_string

    try:
        if scale is None:
            compiled = compile_file(target)
        else:
            compiled = compile_spec_string(target, scale, cluster)
    except DslError as exc:
        print(exc.render(), file=sys.stderr)
        return None
    except ScenarioError as exc:  # a malformed spec string
        print(str(exc), file=sys.stderr)
        return None
    except OSError as exc:
        print(f"cannot read {target!r}: {exc}", file=sys.stderr)
        return None
    for diag in compiled.warnings:
        print(diag.format(target), file=sys.stderr)
    return compiled


def _resolve_scenario(
    target: str, scale: float, cluster: Optional[Dict[str, Any]] = None
):
    """Compile a run target: a .yml document, or a spec string at *scale*
    with *cluster* as its ``cluster:`` block, so flags and documents
    share one validator.  Returns None after printing errors.
    """
    return _load_dsl(target, None if _is_dsl_path(target) else scale, cluster)


def _shards_ok(shards: Optional[str]) -> bool:
    """Check a ``--shards`` value up front; print why it is bad."""
    try:
        resolve_shards(shards, 1)
    except ClusterError as exc:
        print(str(exc), file=sys.stderr)
        return False
    return True


def _cmd_compile(path: str, as_json: bool) -> int:
    from .serialize import scenario_spec_to_dict

    compiled = _load_dsl(path)
    if compiled is None:
        return 1
    if as_json:
        import json

        print(json.dumps(scenario_spec_to_dict(compiled.spec), indent=2,
                         sort_keys=True))
    else:
        print(compiled.spec.describe())
    return 0


def _cmd_lint(paths: List[str], strict: bool) -> int:
    from .scenarios.dsl import lint_file

    worst = 0
    for path in paths:
        diagnostics = lint_file(path)
        for diag in diagnostics:
            print(diag.format(path))
            if diag.is_error:
                worst = max(worst, 1)
            elif strict:
                worst = max(worst, 1)
        if not diagnostics:
            print(f"{path}: ok")
    return worst


def _cmd_plan(path: str, as_json: bool) -> int:
    from .scenarios.dsl import format_plan, plan_dict

    compiled = _load_dsl(path)
    if compiled is None:
        return 1
    if as_json:
        import json

        print(json.dumps(plan_dict(compiled), indent=2, sort_keys=True))
    else:
        print(format_plan(compiled))
    return 0


def _parse_workload_param(text: str):
    key, sep, value = text.partition("=")
    if not sep or not key:
        raise ValueError(f"--param expects KEY=VALUE, got {text!r}")
    for convert in (int, float):
        try:
            return key, convert(value)
        except ValueError:
            continue
    return key, value


def _cmd_trace_record(args: "argparse.Namespace") -> int:
    """``smartmem trace record``: dump a workload's steps to JSONL."""
    from .sim.rng import RngFactory
    from .units import SCENARIO_UNITS
    from .workloads.trace import dump_trace_steps

    if (args.workload is None) == (args.scenario is None):
        print("trace record needs exactly one of --workload or --scenario",
              file=sys.stderr)
        return 2

    units = SCENARIO_UNITS
    factory = RngFactory(args.seed)
    if args.workload is not None:
        try:
            workload_cls = WORKLOADS.lookup(args.workload)
        except ScenarioError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        params = {}
        try:
            for text in args.params or ():
                key, value = _parse_workload_param(text)
                params[key] = value
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        problems = WORKLOADS.errors(args.workload, params)
        for key, message in problems:
            print(f"--param {key}: {message}" if key else message,
                  file=sys.stderr)
        if problems:
            return 2
        rng = factory.stream(f"trace-record/{args.workload}")
        workload = workload_cls(units=units, rng=rng, **params)
        meta = {
            "source": "workload",
            "kind": args.workload,
            "params": params,
            "seed": args.seed,
        }
    else:
        if args.vm is None:
            print("--scenario also needs --vm", file=sys.stderr)
            return 2
        compiled = _resolve_scenario(args.scenario, args.scale)
        if compiled is None:
            return 2
        spec = compiled.spec
        try:
            vm_spec = spec.vm(args.vm)
        except ScenarioError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        if not 0 <= args.job < len(vm_spec.jobs):
            print(
                f"VM {args.vm!r} has {len(vm_spec.jobs)} job(s); "
                f"--job {args.job} is out of range",
                file=sys.stderr,
            )
            return 2
        job = vm_spec.jobs[args.job]
        # The exact stream name Node._workload_factory uses, so the
        # recorded steps are the ones the simulated run would execute.
        rng_name = f"{spec.name}/{vm_spec.name}/{job.kind}/{args.job}"
        rng = factory.stream(rng_name)
        workload = WORKLOADS.lookup(job.kind)(
            units=units, rng=rng, **dict(job.params)
        )
        meta = {
            "source": "scenario",
            "scenario": spec.name,
            "vm": vm_spec.name,
            "job": args.job,
            "kind": job.kind,
            "seed": args.seed,
            "scale": compiled.scale,
        }

    count = dump_trace_steps(workload, args.out, meta=meta)
    print(f"wrote {count} step(s) to {args.out}", file=sys.stderr)
    return 0


def _cmd_tables(scale: float) -> int:
    print("Table I — statistics collected by the hypervisor / MM")
    for row in table1_statistics():
        print(f"  {row['statistic']:32s} {row['description']}")
    print()
    print("Table II — benchmark scenarios")
    for row in table2_scenarios(scale=scale):
        vms = "; ".join(f"{k}: {v}" for k, v in row["vm_parameters"].items())
        print(f"  {row['scenario']:18s} tmem={row['tmem_mb']}MB  {vms}")
        print(f"    {row['comments']}")
    return 0


#: ``smartmem run`` flags that set the key of the same name (``--fail``
#: sets ``failures``, ...) in a family-mode document's ``cluster:`` block.
_CLUSTER_FLAGS = (
    "coordinator", "contended", "failures", "migrations", "faults",
    "degradations",
)


def _cmd_run(args: "argparse.Namespace") -> int:
    cluster = {
        key: getattr(args, key)
        for key in _CLUSTER_FLAGS
        if getattr(args, key) not in (None, False)
    }
    if args.nodes != 1:
        cluster["nodes"] = args.nodes
    if cluster and _is_dsl_path(args.scenario):
        print(
            "--nodes/--coordinator/--contended/--fail/--migrate/--fault/"
            "--degrade do not apply to .yml scenarios; set them in the "
            "document's cluster: block",
            file=sys.stderr,
        )
        return 2
    compiled = _resolve_scenario(args.scenario, args.scale, cluster)
    if compiled is None:
        return 2
    spec = compiled.spec
    selected = args.policies or (
        [compiled.policy] if compiled.policy else list(PAPER_POLICIES)
    )
    try:
        # Build each policy once, so a bad spec fails before any run.
        for policy in selected:
            if policy != NO_TMEM_POLICY:
                create_policy(policy)
    except PolicyError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if not _shards_ok(args.shards):
        return 2
    seed = args.seed
    if seed is None:
        seed = 2019 if compiled.seed is None else compiled.seed
    # Without the flag, SMARTMEM_CHECK_INVARIANTS decides, as for library
    # callers; shard workers inherit it from this process's environment.
    check_invariants = args.check_invariants or None

    results: Dict[str, ScenarioResult] = {}
    for policy in selected:
        runner = ShardedClusterRunner(
            spec, policy, shards=args.shards, seed=seed,
            cluster_engine=args.cluster_engine,
            check_invariants=check_invariants,
        )
        path = runner.path
        print(f"running {spec.name} under {policy} ({path}) ...", file=sys.stderr)
        results[policy] = runner.run()
        if path.epoch_fallback:
            # One machine-greppable line naming the engine that ran.
            print(f"epoch fallback: {path.epoch_fallback}", file=sys.stderr)

    print()
    print(render_runtime_table(
        results, title=f"Running times — {spec.name} (scale={compiled.scale})"
    ))

    if any(result.cluster is not None for result in results.values()):
        for policy, result in results.items():
            if result.cluster is None:
                continue
            print()
            print(
                render_cluster_table(
                    result, title=f"Per-node breakdown — {policy}"
                )
            )

    if args.fairness:
        print()
        print("Mean Jain fairness of tmem shares:")
        for policy, result in results.items():
            if policy == "no-tmem":
                continue
            print(f"  {policy:22s} {mean_fairness(result):.3f}")

    if args.traces:
        for policy, result in results.items():
            if policy == "no-tmem":
                continue
            print()
            print(
                render_figure_series(
                    tmem_usage_figure(result),
                    title=f"Tmem usage over time — {policy}",
                )
            )
    return 0


def _sweep_spec_from_args(args: "argparse.Namespace"):
    """Build the SweepSpec shared by ``sweep`` and ``serve`` (None = bad args).

    Every scenario compiles at every scale here, as ``run`` compiles its
    spec string, before any point runs: bad input is the line ``run``
    prints rather than a traceback, and two strings that build one
    configuration are refused.  Policies are built per point: a point
    whose policy fails is the remote backend's dead-letter case,
    reported without stopping the sweep.
    """
    from .experiments import SweepSpec

    scenarios = tuple(args.scenarios) if args.scenarios else paper_scenario_names()
    policies = tuple(args.policies) if args.policies else tuple(PAPER_POLICIES)
    if args.seeds:
        seeds = tuple(args.seeds)
    else:
        if args.num_seeds < 1:
            print("--num-seeds must be >= 1", file=sys.stderr)
            return None
        seeds = tuple(range(args.seed_base, args.seed_base + args.num_seeds))
    scales = tuple(args.scales) if args.scales else (0.25,)
    for scale in scales:
        built: Dict[str, Any] = {}
        for scenario in dict.fromkeys(scenarios):
            compiled = _load_dsl(scenario, scale)
            if compiled is None:
                return None
            for other, spec in built.items():
                if spec == compiled.spec:
                    print(
                        f"scenarios {other!r} and {scenario!r} build the same "
                        f"configuration ({spec.name}); keep one",
                        file=sys.stderr,
                    )
                    return None
            built[scenario] = compiled.spec
    try:
        return SweepSpec(
            scenarios=scenarios, policies=policies, seeds=seeds, scales=scales
        )
    except ExperimentError as exc:
        print(str(exc), file=sys.stderr)
        return None


def _print_failed_summary(failed, *, retried: bool) -> None:
    """One summary line + per-point detail for permanently failed points.

    *retried* says whether the backend retried transient errors before
    giving up (the remote backend) or tried each point once.
    """
    how = (
        "transient errors were retried with backoff before giving up"
        if retried else "each point was tried once, without retries"
    )
    print(
        f"FAILED: {len(failed)} point(s) permanently failed "
        f"(dead-lettered) — {how}",
        file=sys.stderr,
    )
    for point, error in failed.items():
        print(f"  dead-letter: {point}: {error}", file=sys.stderr)


def _cmd_sweep(args: "argparse.Namespace") -> int:
    from .experiments import ResultStore, create_backend, run_sweep

    spec = _sweep_spec_from_args(args)
    if spec is None or not _shards_ok(args.shards):
        return 2
    if args.backend == "remote":
        if args.shards is not None:
            print("--shards is not supported by the remote backend",
                  file=sys.stderr)
            return 2
        if args.cluster_engine != "exact":
            print("--cluster-engine is not supported by the remote backend",
                  file=sys.stderr)
            return 2
        backend = create_backend(
            "remote",
            num_workers=args.num_workers,
            lease_expiry_s=args.lease_expiry,
            max_attempts=args.max_attempts,
        )
    else:
        backend = create_backend(
            args.backend,
            max_workers=args.max_workers,
            shards=args.shards,
            cluster_engine=args.cluster_engine,
        )
    store = None if args.no_store else ResultStore(args.results_dir)

    print(f"sweep: {spec.describe()} [backend={args.backend}]", file=sys.stderr)

    done = 0

    def progress(point, result, reused) -> None:
        nonlocal done
        done += 1
        verb = "reused" if reused else "ran"
        print(
            f"  [{done}/{spec.size}] {verb} {point} "
            f"({result.wall_clock_s:.1f}s wall)",
            file=sys.stderr,
        )

    outcome = run_sweep(
        spec,
        backend=backend,
        store=store,
        resume=not args.fresh,
        progress=progress,
    )

    if outcome.results:  # nothing to aggregate when every point failed
        print()
        print(
            render_aggregate_table(
                aggregate_sweep(outcome.results),
                title=(
                    f"Sweep aggregate — {len(spec.seeds)} seed(s), "
                    f"backend={outcome.backend_name}, "
                    f"{outcome.wall_clock_s:.1f}s wall clock"
                ),
            )
        )
    if store is not None:
        print(f"\nresults archived in {store.root}/ "
              f"({len(outcome.executed)} new, {len(outcome.reused)} reused)")
        if outcome.reused:
            print("reused results reflect the code that produced them; "
                  "pass --fresh after simulator/policy changes")
    if outcome.failed:
        # Partial failure must be loud and machine-visible, not a log
        # line: print the dead-letter summary and exit nonzero.
        print(file=sys.stderr)
        _print_failed_summary(outcome.failed, retried=args.backend == "remote")
        return 1
    return 0


def _cmd_serve(args: "argparse.Namespace") -> int:
    import signal
    import time as _time
    from pathlib import Path

    from .experiments import LeaseQueue, ResultStore, SweepServer

    spec = _sweep_spec_from_args(args)
    if spec is None:
        return 2
    store = ResultStore(args.results_dir)
    points = spec.expand()
    todo = list(points) if args.fresh else store.missing(points)
    print(f"serve: {spec.describe()}", file=sys.stderr)
    if not todo:
        print(
            f"all {len(points)} point(s) already archived in {store.root}/; "
            "nothing to serve",
            file=sys.stderr,
        )
        return 0

    queue = LeaseQueue(
        todo,
        lease_expiry_s=args.lease_expiry,
        max_attempts=args.max_attempts,
    )
    done = 0

    def recorded(point, result) -> None:
        nonlocal done
        store.save(point, result)
        done += 1
        print(f"  [{done}/{len(todo)}] recorded {point}", file=sys.stderr)

    server = SweepServer(
        queue, host=args.host, port=args.port, on_result=recorded
    )
    interrupted = []

    def on_signal(signum, frame) -> None:
        # Graceful drain: stop granting leases; in-flight results still
        # land in the store, then the main loop exits.
        interrupted.append(signum)
        server.drain()

    old_term = signal.signal(signal.SIGTERM, on_signal)
    old_int = signal.signal(signal.SIGINT, on_signal)
    server.start()
    try:
        print(
            f"serving {len(todo)} point(s) on {server.url} — attach workers "
            f"with: smartmem worker --url {server.url}",
            file=sys.stderr,
        )
        if args.url_file:
            Path(args.url_file).write_text(server.url + "\n")
        while not server.is_settled and not interrupted:
            server.tick()
            _time.sleep(0.05)
        # Give polling workers a moment to observe done=True and exit.
        deadline = _time.monotonic() + max(args.linger, 0.0)
        while _time.monotonic() < deadline and not interrupted:
            _time.sleep(0.05)
    finally:
        server.stop()
        signal.signal(signal.SIGTERM, old_term)
        signal.signal(signal.SIGINT, old_int)

    counts = queue.counts()
    dead = queue.dead_letters()
    print(
        f"sweep settled: {counts['done']} recorded, {len(dead)} dead-lettered "
        f"(results in {store.root}/)",
        file=sys.stderr,
    )
    if interrupted:
        print("interrupted: drained leases and stopped early", file=sys.stderr)
        return 130
    if dead:
        _print_failed_summary(
            {d.point: d.summary() for d in dead}, retried=True
        )
        return 1
    return 0


def _cmd_worker(args: "argparse.Namespace") -> int:
    import signal
    import socket

    from .errors import TransportError
    from .experiments import HttpTransport, SweepClient, Worker

    worker_id = args.worker_id or f"{socket.gethostname()}-{os.getpid()}"
    transport = HttpTransport(args.url, timeout_s=args.timeout)
    client = SweepClient(transport, worker_id, seed=os.getpid())
    worker = Worker(
        client, heartbeat_interval_s=args.heartbeat_interval
    )

    def on_signal(signum, frame) -> None:
        print(
            f"worker {worker_id}: draining (finishing in-flight point)",
            file=sys.stderr,
        )
        worker.request_drain()

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    print(f"worker {worker_id}: polling {args.url}", file=sys.stderr)
    try:
        summary = worker.run()
    except TransportError as exc:
        print(f"worker {worker_id}: server unreachable: {exc}", file=sys.stderr)
        return 3
    print(
        f"worker {worker_id}: done — {summary.completed} completed, "
        f"{summary.duplicates} duplicate(s), {summary.failures} failure(s)"
        f"{' (drained)' if summary.drained else ''}",
        file=sys.stderr,
    )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        return _cmd_list(args.verbose)
    if args.command == "compile":
        return _cmd_compile(args.file, args.json)
    if args.command == "lint":
        return _cmd_lint(args.files, args.strict)
    if args.command == "plan":
        return _cmd_plan(args.file, args.json)
    if args.command == "trace":
        return _cmd_trace_record(args)
    if args.command == "tables":
        return _cmd_tables(args.scale)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "worker":
        return _cmd_worker(args)
    if args.command == "run":
        return _cmd_run(args)
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
