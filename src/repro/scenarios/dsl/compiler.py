"""Compile a loaded DSL document into a validated scenario.

The compiler is a two-mode front end over the exact spec objects the
Python API uses:

* **family mode** (``family:``) delegates to the scenario registry's
  factory — the compiled :class:`~repro.scenarios.spec.ScenarioSpec` is
  the very object ``smartmem run <family>:<params>`` would build, so
  fingerprints are byte-identical by construction.  An optional
  ``cluster:`` block carries what the ``smartmem run`` cluster flags
  set: with ``nodes`` it replicates a single-host family through
  :func:`~repro.cluster.clusterize`, without it its keys replace those
  fields of a cluster-native family's topology.  ``smartmem run``
  compiles its flags as such a document.
* **explicit mode** (``scenario:``) assembles
  :class:`~repro.scenarios.spec.ScenarioSpec` /
  :class:`~repro.scenarios.spec.ClusterTopology` /
  :class:`~repro.cluster.faults.FaultPlan` field by field.

Validation is diagnostic-driven: the compiler keeps going after the
first problem and reports everything it found, each finding positioned
at the source line that caused it.  Feasibility checks go beyond type
checking — unknown families and workload kinds get "did you mean"
suggestions, explicit host memory that cannot hold the VMs is rejected,
fault/migration/trigger schedules are checked against node lifetimes and
the run deadline, trace workloads have their trace files resolved
(relative to the document) and probed, and every job's workload is built
once, so a relation between its parameters (usemem's ``start_mb <=
max_mb``) fails here rather than mid-run.  The built workload's peak
footprint is then compared with its VM's usable RAM plus swap, and a
VM too small for its job gets a warning (in family mode too): its swap
area would fill mid-run.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ...cluster import clusterize
from ...cluster.faults import FaultPlan, parse_link_degradation, parse_node_fault
from ...config import GuestConfig
from ...core.coordinator import available_coordinators, create_coordinator
from ...core.policy import available_policies, create_policy
from ...errors import ClusterError, PolicyError, ScenarioError, UnknownPolicyError, WorkloadError
from ...params import param_errors, scale_error, suggest
from ...units import SCENARIO_UNITS
from ...workloads.registry import WORKLOADS
from ..registry import parse_scenario_spec, registered_scenarios
from ..runner import NO_TMEM_POLICY
from ..spec import (
    ClusterTopology,
    NodeSpec,
    PhaseTrigger,
    ScenarioSpec,
    VMSpec,
    WorkloadSpec,
    parse_node_failure,
    parse_vm_migration,
)
from .diagnostics import ERROR, WARNING, Diagnostic, DslError, sort_key
from .loader import Document, load_document, load_file

__all__ = [
    "CompiledScenario",
    "compile_document",
    "compile_file",
    "compile_spec_string",
    "compile_text",
    "lint_document",
    "lint_file",
    "lint_text",
]

_FAMILY_KEYS = {"family", "scale", "params", "policy", "seed", "cluster"}
_EXPLICIT_KEYS = {
    "scenario",
    "description",
    "tmem_mb",
    "host_memory_mb",
    "max_duration_s",
    "policy",
    "seed",
    "vms",
    "triggers",
    "stop_trigger",
    "cluster",
}
_VM_KEYS = {"name", "ram_mb", "vcpus", "swap_mb", "jobs"}
_JOB_KEYS = {"kind", "params", "start_at", "delay_after_previous", "label"}
_TRIGGER_KEYS = {"watch_vm", "phase_prefix", "start_vm"}
_STOP_TRIGGER_KEYS = {"watch_vm", "phase_prefix"}
_NODE_KEYS = {"name", "vms", "tmem_mb", "host_memory_mb", "zone"}
#: The family-mode ``cluster:`` keys: exactly what the run flags set.
_FAMILY_CLUSTER_KEYS = {
    "nodes",
    "coordinator",
    "contended",
    "failures",
    "migrations",
    "faults",
    "degradations",
}
_FAULT_KNOBS = (
    "retry_limit",
    "backoff_base_s",
    "backoff_factor",
    "retry_deadline_s",
    "breaker_threshold",
    "breaker_cooldown_s",
)
_CLUSTER_KEYS = _FAMILY_CLUSTER_KEYS | set(_FAULT_KNOBS) | {
    "remote_spill",
    "interconnect_latency_s",
    "interconnect_bandwidth_bytes_s",
    "rebalance_interval_s",
}


@dataclass
class CompiledScenario:
    """The result of compiling one DSL document."""

    spec: ScenarioSpec
    document: Document
    #: ``"family"`` or ``"explicit"``.
    mode: str
    family: Optional[str] = None
    family_params: Dict[str, Any] = field(default_factory=dict)
    scale: float = 1.0
    #: Policy requested by the document (``smartmem run`` default).
    policy: Optional[str] = None
    seed: Optional[int] = None
    #: Non-fatal findings (deadline overruns, missing trace files, VMs
    #: too small for their jobs, ...).
    warnings: List[Diagnostic] = field(default_factory=list)

    @property
    def filename(self) -> str:
        return self.document.filename


class _Compiler:
    """One compilation pass collecting diagnostics as it goes."""

    def __init__(self, doc: Document) -> None:
        self.doc = doc
        self.diagnostics: List[Diagnostic] = []
        #: (kind, sorted params) -> the built workload's peak footprint.
        self._footprints: Dict[Tuple[str, Tuple[Tuple[str, Any], ...]], int] = {}

    # -- diagnostics ---------------------------------------------------------
    def error(self, message: str, path: str) -> None:
        self.diagnostics.append(self.doc.diagnostic(message, path, ERROR))

    def warning(self, message: str, path: str) -> None:
        self.diagnostics.append(self.doc.diagnostic(message, path, WARNING))

    @property
    def failed(self) -> bool:
        return any(d.is_error for d in self.diagnostics)

    def error_count(self) -> int:
        return sum(1 for d in self.diagnostics if d.is_error)

    # -- typed accessors -----------------------------------------------------
    def check_keys(
        self, data: Mapping[str, Any], allowed: Sequence[str], path: str
    ) -> None:
        for key in data:
            if key not in allowed:
                child = f"{path}.{key}" if path else key
                self.error(
                    f"unknown key {key!r}{suggest(key, allowed)}; "
                    f"valid keys: {sorted(allowed)}",
                    child,
                )

    def expect_map(self, value: Any, path: str) -> Optional[Dict[str, Any]]:
        if isinstance(value, dict):
            return value
        self.error(f"expected a mapping, got {type(value).__name__}", path)
        return None

    def expect_list(self, value: Any, path: str) -> Optional[List[Any]]:
        if isinstance(value, list):
            return value
        self.error(f"expected a list, got {type(value).__name__}", path)
        return None

    def expect_str(self, value: Any, path: str) -> Optional[str]:
        if isinstance(value, str):
            return value
        self.error(f"expected a string, got {type(value).__name__}", path)
        return None

    def expect_int(self, value: Any, path: str) -> Optional[int]:
        if isinstance(value, bool) or not isinstance(value, int):
            self.error(f"expected an integer, got {value!r}", path)
            return None
        return value

    def expect_number(self, value: Any, path: str) -> Optional[float]:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            self.error(f"expected a number, got {value!r}", path)
            return None
        if isinstance(value, float) and not math.isfinite(value):
            self.error(f"expected a finite number, got {value!r}", path)
            return None
        return float(value)

    def expect_bool(self, value: Any, path: str) -> Optional[bool]:
        if isinstance(value, bool):
            return value
        self.error(f"expected true/false, got {value!r}", path)
        return None

    def expect_scalar(self, value: Any, path: str) -> Any:
        if value is None or isinstance(value, (bool, int, float, str)):
            return value
        self.error(
            f"expected a scalar value, got {type(value).__name__}", path
        )
        return None

    # -- shared fragments ----------------------------------------------------
    def compile_policy_seed(
        self, data: Mapping[str, Any]
    ) -> Tuple[Optional[str], Optional[int]]:
        policy = None
        if "policy" in data:
            policy = self.expect_str(data["policy"], "policy")
            if policy is not None and policy != NO_TMEM_POLICY:
                policy = self.check_spec(
                    policy, "policy", "policy", create_policy, available_policies
                )
        seed = None
        if "seed" in data:
            seed = self.expect_int(data["seed"], "seed")
        return policy, seed

    def check_spec(
        self, spec: str, path: str, kind: str, create, available
    ) -> Optional[str]:
        """*spec* when *create* builds it, else ``None`` and a positioned
        error with a did-you-mean suggestion for an unknown name."""
        try:
            create(spec)
        except PolicyError as exc:
            suggestion = ""
            if isinstance(exc, UnknownPolicyError):
                suggestion = suggest(spec.split(":")[0], available())
            self.error(f"bad {kind} spec: {exc}{suggestion}", path)
            return None
        return spec

    # -- family mode ---------------------------------------------------------
    def compile_family(self, data: Mapping[str, Any]) -> Optional[CompiledScenario]:
        self.check_keys(data, sorted(_FAMILY_KEYS), "")
        family = self.expect_str(data["family"], "family")
        registry = registered_scenarios()
        if family is not None and family not in registry:
            self.error(
                f"unknown scenario family {family!r}"
                f"{suggest(family, sorted(registry))}; "
                f"available: {sorted(registry)}",
                "family",
            )
            family = None

        scale = 1.0
        if "scale" in data:
            value = self.expect_number(data["scale"], "scale")
            if value is not None:
                problem = scale_error(value)
                if problem:
                    self.error(problem, "scale")
                else:
                    scale = value

        params: Dict[str, Any] = {}
        if "params" in data:
            mapping = self.expect_map(data["params"], "params")
            if mapping is not None:
                for key, raw in mapping.items():
                    # Every family parameter is numeric; ints stay ints.
                    if self.expect_number(raw, f"params.{key}") is not None:
                        params[key] = raw
        if family is not None:
            info = registry[family].parameter_info()
            for key, message in param_errors(info, params, f"family {family!r}"):
                self.error(message, f"params.{key}" if key else "params")

        cluster = None
        if "cluster" in data:
            cluster = self.compile_family_cluster(data["cluster"])

        policy, seed = self.compile_policy_seed(data)
        if self.failed or family is None:
            return None
        try:
            spec = registry[family].factory(scale=scale, **params)
        except ScenarioError as exc:
            self.error(f"family {family!r} rejected the document: {exc}", "params")
            return None
        if cluster is not None:
            spec = self.overlay_cluster(spec, family, *cluster)
            if spec is None:
                return None
        self.check_swap_headroom(spec, family=True)
        return CompiledScenario(
            spec=spec,
            document=self.doc,
            mode="family",
            family=family,
            family_params=params,
            scale=scale,
            policy=policy,
            seed=seed,
        )

    def compile_family_cluster(
        self, data: Any
    ) -> Optional[Tuple[Optional[int], Dict[str, Any]]]:
        """``(nodes, topology fields)`` of a family-mode ``cluster:`` block."""
        mapping = self.expect_map(data, "cluster")
        if mapping is None:
            return None
        self.check_keys(mapping, sorted(_FAMILY_CLUSTER_KEYS), "cluster")
        nodes = None
        if "nodes" in mapping:
            nodes = self.expect_int(mapping["nodes"], "cluster.nodes")
            if nodes is not None and nodes < 1:
                self.error(f"nodes must be >= 1, got {nodes}", "cluster.nodes")
        return nodes, self.compile_run_flag_keys(mapping, "cluster")

    def overlay_cluster(
        self,
        spec: ScenarioSpec,
        family: str,
        nodes: Optional[int],
        fields: Dict[str, Any],
    ) -> Optional[ScenarioSpec]:
        """Apply a family-mode ``cluster:`` block to the family's spec.

        With ``nodes`` a single-host family is replicated through
        :func:`~repro.cluster.clusterize`; without it the keys replace
        those fields of a cluster-native family's topology.
        """
        if nodes is not None and spec.topology is not None:
            self.error(
                f"family {family!r} already defines its own cluster "
                "topology; 'nodes' only replicates single-host families",
                "cluster.nodes",
            )
            return None
        if nodes is None and spec.topology is None:
            self.error(
                f"family {family!r} runs on a single host; its cluster keys "
                "need 'nodes: N' (--nodes N) to replicate it onto N nodes",
                "cluster",
            )
            return None
        try:
            if nodes is not None:
                return clusterize(spec, nodes, **fields)
            return replace(spec, topology=replace(spec.topology, **fields))
        except (ScenarioError, ClusterError) as exc:
            self.error(str(exc), "cluster")
            return None

    # -- explicit mode: workloads --------------------------------------------
    def compile_job(self, data: Any, path: str) -> Optional[WorkloadSpec]:
        mapping = self.expect_map(data, path)
        if mapping is None:
            return None
        before = self.error_count()
        self.check_keys(mapping, sorted(_JOB_KEYS), path)
        if "kind" not in mapping:
            self.error("job needs a 'kind'", path)
            return None
        kind = self.expect_str(mapping["kind"], f"{path}.kind")
        if kind is not None and kind not in WORKLOADS.classes:
            self.error(
                f"unknown workload kind {kind!r}"
                f"{suggest(kind, WORKLOADS.names())}; "
                f"available: {list(WORKLOADS.names())}",
                f"{path}.kind",
            )
            kind = None

        params: Dict[str, Any] = {}
        if "params" in mapping:
            raw_params = self.expect_map(mapping["params"], f"{path}.params")
            if raw_params is not None:
                for key, raw in raw_params.items():
                    value = self.expect_scalar(raw, f"{path}.params.{key}")
                    if value is not None:
                        params[key] = value
        if kind is not None:
            self.check_workload_params(kind, params, f"{path}.params")

        start_at = None
        if "start_at" in mapping:
            start_at = self.expect_number(mapping["start_at"], f"{path}.start_at")
        delay = 0.0
        if "delay_after_previous" in mapping:
            value = self.expect_number(
                mapping["delay_after_previous"], f"{path}.delay_after_previous"
            )
            if value is not None:
                delay = value
        label = ""
        if "label" in mapping:
            label = self.expect_str(mapping["label"], f"{path}.label") or ""

        if kind is None or self.error_count() > before:
            return None
        try:
            return WorkloadSpec(
                kind=kind,
                params=params,
                start_at=start_at,
                delay_after_previous=delay,
                label=label,
            )
        except ScenarioError as exc:
            self.error(str(exc), path)
            return None

    def check_workload_params(
        self, kind: str, params: Dict[str, Any], path: str
    ) -> None:
        """Validate job params against the workload's declared parameters,
        then build the workload once, as a node does when the job starts,
        so a relation the constructor checks is reported at *path*."""
        errors = WORKLOADS.errors(kind, params)
        for key, message in errors:
            self.error(message, f"{path}.{key}" if key else path)
        if kind == "trace" and isinstance(params.get("path"), str):
            params["path"] = self.resolve_trace_path(params["path"], f"{path}.path")
            if not os.path.exists(params["path"]):
                return  # warned: the file may be recorded before the run
        if errors:
            return
        try:
            self.job_footprint(kind, params)
        except WorkloadError as exc:
            self.error(str(exc), path)

    def job_footprint(self, kind: str, params: Mapping[str, Any]) -> int:
        """The ``peak_footprint_pages`` of a job, building its workload
        once per (kind, params) as a node does when the job starts; a
        relation the constructor checks raises :class:`WorkloadError`."""
        key = (kind, tuple(sorted(params.items())))
        footprint = self._footprints.get(key)
        if footprint is None:
            workload = WORKLOADS.lookup(kind)(
                units=SCENARIO_UNITS, rng=np.random.default_rng(0), **params
            )
            footprint = self._footprints[key] = workload.peak_footprint_pages()
        return footprint

    def check_swap_headroom(self, spec: ScenarioSpec, family: bool) -> None:
        """Warn about VMs whose largest job fills their RAM and swap.

        A guest frees a frame before it faults a page in, so a job that
        touches at least the VM's usable RAM pages plus its swap pages
        fills the swap area, and the eviction of the next fault finds no
        slot: the run fails with a :class:`SwapError` unless tmem holds
        enough of the job's pages, which is why this only warns.  Kinds
        with a footprint of 0 (clean file pages) never swap.  A family
        document gets one warning, at ``params``.
        """
        guest = GuestConfig()
        short = []
        for index, vm in enumerate(spec.vms):
            footprint = 0
            for job in vm.jobs:
                try:
                    footprint = max(
                        footprint, self.job_footprint(job.kind, job.params)
                    )
                except WorkloadError:
                    continue  # reported, or a trace file recorded later
            usable = guest.usable_ram_pages(vm.ram_pages(SCENARIO_UNITS))
            swap = vm.swap_pages(SCENARIO_UNITS)
            if footprint >= usable + swap:
                short.append((
                    index,
                    vm.name,
                    f"touches {footprint} pages, at least its {usable} "
                    f"usable RAM pages plus {swap} swap pages, so an "
                    "eviction finds the swap area full and the run fails "
                    "unless tmem holds enough of them",
                ))
        if family and short:
            _, name, detail = short[0]
            self.warning(
                f"{len(short)} of {len(spec.vms)} VMs cannot hold their "
                f"largest job in RAM plus swap: the job of {name!r} {detail}",
                "params",
            )
            return
        for index, name, detail in short:
            self.warning(
                f"VM {name!r} cannot hold its largest job in RAM plus "
                f"swap: the job {detail}",
                f"vms[{index}]",
            )

    def resolve_trace_path(self, trace_path: str, path: str) -> str:
        """Resolve a trace file relative to the document and probe it."""
        resolved = trace_path
        if not os.path.isabs(trace_path) and os.path.sep in self.doc.filename:
            base = os.path.dirname(os.path.abspath(self.doc.filename))
            resolved = os.path.normpath(os.path.join(base, trace_path))
        if not os.path.exists(resolved):
            self.warning(
                f"trace file {resolved!r} does not exist (yet); "
                f"the run will fail unless it is created first",
                path,
            )
        return resolved

    # -- explicit mode: VMs --------------------------------------------------
    def compile_vm(self, data: Any, path: str) -> Optional[VMSpec]:
        mapping = self.expect_map(data, path)
        if mapping is None:
            return None
        before = self.error_count()
        self.check_keys(mapping, sorted(_VM_KEYS), path)
        for required in ("name", "ram_mb"):
            if required not in mapping:
                self.error(f"VM needs a {required!r}", path)
        if "name" not in mapping or "ram_mb" not in mapping:
            return None
        name = self.expect_str(mapping["name"], f"{path}.name")
        ram_mb = self.expect_int(mapping["ram_mb"], f"{path}.ram_mb")
        vcpus = 1
        if "vcpus" in mapping:
            vcpus = self.expect_int(mapping["vcpus"], f"{path}.vcpus") or 1
        swap_mb = 2048
        if "swap_mb" in mapping:
            value = self.expect_int(mapping["swap_mb"], f"{path}.swap_mb")
            if value is not None:
                swap_mb = value
        jobs: List[WorkloadSpec] = []
        if "jobs" in mapping:
            raw_jobs = self.expect_list(mapping["jobs"], f"{path}.jobs")
            if raw_jobs is not None:
                for index, raw in enumerate(raw_jobs):
                    job = self.compile_job(raw, f"{path}.jobs[{index}]")
                    if job is not None:
                        jobs.append(job)
        if name is None or ram_mb is None or self.error_count() > before:
            return None
        try:
            return VMSpec(
                name=name, ram_mb=ram_mb, vcpus=vcpus, swap_mb=swap_mb,
                jobs=tuple(jobs),
            )
        except ScenarioError as exc:
            self.error(str(exc), path)
            return None

    # -- explicit mode: triggers ---------------------------------------------
    def compile_trigger(
        self, data: Any, path: str, vm_names: Sequence[str], *, stop: bool
    ) -> Optional[PhaseTrigger]:
        mapping = self.expect_map(data, path)
        if mapping is None:
            return None
        allowed = _STOP_TRIGGER_KEYS if stop else _TRIGGER_KEYS
        self.check_keys(mapping, sorted(allowed), path)
        ok = True
        for required in ("watch_vm", "phase_prefix"):
            if required not in mapping:
                self.error(f"trigger needs a {required!r}", path)
                ok = False
        if not ok:
            return None
        watch_vm = self.expect_str(mapping["watch_vm"], f"{path}.watch_vm")
        phase_prefix = self.expect_str(
            mapping["phase_prefix"], f"{path}.phase_prefix"
        )
        start_vm = None
        if not stop:
            if "start_vm" not in mapping:
                self.error("trigger needs a 'start_vm'", path)
                ok = False
            else:
                start_vm = self.expect_str(mapping["start_vm"], f"{path}.start_vm")
        for field_name, vm in (("watch_vm", watch_vm), ("start_vm", start_vm)):
            if vm is not None and vm not in vm_names:
                self.error(
                    f"trigger {field_name} {vm!r} is not a declared VM"
                    f"{suggest(vm, vm_names)}",
                    f"{path}.{field_name}",
                )
                ok = False
        if not ok or watch_vm is None or phase_prefix is None:
            return None
        return PhaseTrigger(
            watch_vm=watch_vm, phase_prefix=phase_prefix, start_vm=start_vm
        )

    # -- explicit mode: cluster ----------------------------------------------
    def compile_node(
        self, data: Any, path: str, vm_names: Sequence[str]
    ) -> Optional[NodeSpec]:
        mapping = self.expect_map(data, path)
        if mapping is None:
            return None
        before = self.error_count()
        self.check_keys(mapping, sorted(_NODE_KEYS), path)
        ok = True
        for required in ("name", "vms", "tmem_mb"):
            if required not in mapping:
                self.error(f"cluster node needs a {required!r}", path)
                ok = False
        if not ok:
            return None
        name = self.expect_str(mapping["name"], f"{path}.name")
        tmem_mb = self.expect_int(mapping["tmem_mb"], f"{path}.tmem_mb")
        placed: List[str] = []
        raw_vms = self.expect_list(mapping["vms"], f"{path}.vms")
        if raw_vms is not None:
            for index, raw in enumerate(raw_vms):
                vm = self.expect_str(raw, f"{path}.vms[{index}]")
                if vm is None:
                    continue
                if vm not in vm_names:
                    self.error(
                        f"node places unknown VM {vm!r}{suggest(vm, vm_names)}",
                        f"{path}.vms[{index}]",
                    )
                    continue
                placed.append(vm)
        host_memory_mb = None
        if "host_memory_mb" in mapping:
            host_memory_mb = self.expect_int(
                mapping["host_memory_mb"], f"{path}.host_memory_mb"
            )
        zone = None
        if "zone" in mapping:
            zone = self.expect_str(mapping["zone"], f"{path}.zone")
        if name is None or tmem_mb is None or self.error_count() > before:
            return None
        try:
            return NodeSpec(
                name=name,
                vm_names=tuple(placed),
                tmem_mb=tmem_mb,
                host_memory_mb=host_memory_mb,
                zone=zone,
            )
        except ScenarioError as exc:
            self.error(str(exc), path)
            return None

    def compile_spec_strings(
        self, mapping: Mapping[str, Any], path: str, key: str, parse
    ) -> List[Any]:
        """Parse list *key* of flag-grammar strings, one error per bad item."""
        items: List[Any] = []
        if key not in mapping:
            return items
        for index, raw in enumerate(
            self.expect_list(mapping[key], f"{path}.{key}") or ()
        ):
            item_path = f"{path}.{key}[{index}]"
            text = self.expect_str(raw, item_path)
            if text is None:
                continue
            try:
                items.append(parse(text))
            except (ScenarioError, ClusterError) as exc:
                self.error(str(exc), item_path)
        return items

    def compile_fault_plan(
        self, mapping: Mapping[str, Any], path: str
    ) -> Optional[FaultPlan]:
        before = self.error_count()
        node_faults = self.compile_spec_strings(
            mapping, path, "faults", parse_node_fault
        )
        link_faults = self.compile_spec_strings(
            mapping, path, "degradations", parse_link_degradation
        )
        knobs: Dict[str, Any] = {}
        for knob in _FAULT_KNOBS:
            if knob not in mapping:
                continue
            expect = (
                self.expect_int
                if knob in ("retry_limit", "breaker_threshold")
                else self.expect_number
            )
            value = expect(mapping[knob], f"{path}.{knob}")
            if value is not None:
                knobs[knob] = value
        if not node_faults and not link_faults and not knobs:
            return None
        if self.error_count() > before:
            return None
        try:
            return FaultPlan(
                node_faults=tuple(node_faults),
                link_faults=tuple(link_faults),
                **knobs,
            )
        except ClusterError as exc:
            self.error(str(exc), f"{path}.faults")
            return None

    def compile_run_flag_keys(
        self, mapping: Mapping[str, Any], path: str
    ) -> Dict[str, Any]:
        """Topology fields for the keys both modes share (the run flags').

        Only keys the block sets appear; ``faults``, ``degradations`` and
        the fault knobs together make ``fault_plan``.
        """
        fields: Dict[str, Any] = {}
        if "contended" in mapping:
            value = self.expect_bool(mapping["contended"], f"{path}.contended")
            if value is not None:
                fields["contended"] = value
        if "coordinator" in mapping:
            coordinator = self.expect_str(
                mapping["coordinator"], f"{path}.coordinator"
            )
            if coordinator is not None:
                fields["coordinator"] = self.check_spec(
                    coordinator, f"{path}.coordinator", "coordinator",
                    create_coordinator, available_coordinators,
                )
        for key, parse in (("failures", parse_node_failure),
                           ("migrations", parse_vm_migration)):
            if key in mapping:
                fields[key] = tuple(
                    self.compile_spec_strings(mapping, path, key, parse)
                )
        if any(key in mapping for key in ("faults", "degradations", *_FAULT_KNOBS)):
            fields["fault_plan"] = self.compile_fault_plan(mapping, path)
        return fields

    def compile_cluster(
        self, data: Any, path: str, vm_names: Sequence[str]
    ) -> Optional[ClusterTopology]:
        mapping = self.expect_map(data, path)
        if mapping is None:
            return None
        before = self.error_count()
        self.check_keys(mapping, sorted(_CLUSTER_KEYS), path)
        if "nodes" not in mapping:
            self.error("cluster needs a 'nodes' list", path)
            return None

        nodes: List[NodeSpec] = []
        raw_nodes = self.expect_list(mapping["nodes"], f"{path}.nodes")
        if raw_nodes is not None:
            for index, raw in enumerate(raw_nodes):
                node = self.compile_node(raw, f"{path}.nodes[{index}]", vm_names)
                if node is not None:
                    nodes.append(node)

        kwargs = self.compile_run_flag_keys(mapping, path)
        if "remote_spill" in mapping:
            value = self.expect_bool(mapping["remote_spill"], f"{path}.remote_spill")
            if value is not None:
                kwargs["remote_spill"] = value
        for knob in (
            "interconnect_latency_s",
            "interconnect_bandwidth_bytes_s",
            "rebalance_interval_s",
        ):
            if knob in mapping:
                value = self.expect_number(mapping[knob], f"{path}.{knob}")
                if value is not None:
                    kwargs[knob] = value

        if self.error_count() > before:
            return None
        try:
            return ClusterTopology(nodes=tuple(nodes), **kwargs)
        except (ScenarioError, ClusterError) as exc:
            self.error(str(exc), path)
            return None

    # -- explicit mode: top level --------------------------------------------
    def compile_explicit(self, data: Mapping[str, Any]) -> Optional[CompiledScenario]:
        self.check_keys(data, sorted(_EXPLICIT_KEYS), "")
        name = self.expect_str(data["scenario"], "scenario")
        description = ""
        if "description" in data:
            description = self.expect_str(data["description"], "description") or ""
        if "tmem_mb" not in data:
            self.error("explicit scenarios need a 'tmem_mb'", "")
            tmem_mb = None
        else:
            tmem_mb = self.expect_int(data["tmem_mb"], "tmem_mb")
        host_memory_mb = None
        if "host_memory_mb" in data:
            host_memory_mb = self.expect_int(data["host_memory_mb"], "host_memory_mb")
        max_duration_s = 3600.0
        if "max_duration_s" in data:
            value = self.expect_number(data["max_duration_s"], "max_duration_s")
            if value is not None:
                max_duration_s = value

        vms: List[VMSpec] = []
        # Reference checks (triggers, node placement) resolve against the
        # *declared* VM names so one broken VM body doesn't cascade into
        # phantom "unknown VM" errors everywhere else.
        vm_names: List[str] = []
        if "vms" not in data:
            self.error("explicit scenarios need a 'vms' list", "")
        else:
            raw_vms = self.expect_list(data["vms"], "vms")
            if raw_vms is not None:
                for index, raw in enumerate(raw_vms):
                    declared = raw.get("name") if isinstance(raw, dict) else None
                    if isinstance(declared, str):
                        if declared in vm_names:
                            self.error(
                                f"duplicate VM name {declared!r}",
                                f"vms[{index}].name",
                            )
                        else:
                            vm_names.append(declared)
                    vm = self.compile_vm(raw, f"vms[{index}]")
                    if vm is not None:
                        vms.append(vm)

        triggers: List[PhaseTrigger] = []
        if "triggers" in data:
            raw_list = self.expect_list(data["triggers"], "triggers")
            if raw_list is not None:
                for index, raw in enumerate(raw_list):
                    trigger = self.compile_trigger(
                        raw, f"triggers[{index}]", vm_names, stop=False
                    )
                    if trigger is not None:
                        triggers.append(trigger)
        stop_trigger = None
        if "stop_trigger" in data:
            stop_trigger = self.compile_trigger(
                data["stop_trigger"], "stop_trigger", vm_names, stop=True
            )

        topology = None
        if "cluster" in data:
            topology = self.compile_cluster(data["cluster"], "cluster", vm_names)

        policy, seed = self.compile_policy_seed(data)
        if self.failed or name is None or tmem_mb is None:
            return None
        try:
            spec = ScenarioSpec(
                name=name,
                description=description,
                vms=tuple(vms),
                tmem_mb=tmem_mb,
                host_memory_mb=host_memory_mb,
                phase_triggers=tuple(triggers),
                stop_trigger=stop_trigger,
                max_duration_s=max_duration_s,
                topology=topology,
            )
            spec.effective_host_memory_mb()
        except ScenarioError as exc:
            self.error(str(exc), "host_memory_mb" if "host memory" in str(exc) else "")
            return None

        self.check_node_capacity(spec)
        self.check_deadlines(spec, data)
        self.check_swap_headroom(spec, family=False)
        if self.failed:
            return None
        return CompiledScenario(
            spec=spec,
            document=self.doc,
            mode="explicit",
            policy=policy,
            seed=seed,
        )

    def check_node_capacity(self, spec: ScenarioSpec) -> None:
        """Reject nodes whose explicit host memory cannot hold their VMs."""
        if spec.topology is None:
            return
        ram_of = {vm.name: vm.ram_mb for vm in spec.vms}
        for index, node in enumerate(spec.topology.nodes):
            vm_ram = sum(ram_of.get(vm_name, 0) for vm_name in node.vm_names)
            try:
                node.effective_host_memory_mb(vm_ram)
            except ScenarioError as exc:
                self.error(str(exc), f"cluster.nodes[{index}].host_memory_mb")

    def check_deadlines(self, spec: ScenarioSpec, data: Mapping[str, Any]) -> None:
        """Warn about schedules that fall after the run deadline."""
        deadline = spec.max_duration_s
        for vm_index, vm in enumerate(spec.vms):
            for job_index, job in enumerate(vm.jobs):
                if job.start_at is not None and job.start_at >= deadline:
                    self.warning(
                        f"job starts at t={job.start_at:g} but the run stops "
                        f"at max_duration_s={deadline:g}; it will never run",
                        f"vms[{vm_index}].jobs[{job_index}].start_at",
                    )
        topology = spec.topology
        if topology is None:
            return
        for index, failure in enumerate(topology.failures):
            if failure.at_s >= deadline:
                self.warning(
                    f"node failure at t={failure.at_s:g} falls after "
                    f"max_duration_s={deadline:g}; it will never fire",
                    f"cluster.failures[{index}]",
                )
        for index, migration in enumerate(topology.migrations):
            if migration.at_s >= deadline:
                self.warning(
                    f"migration at t={migration.at_s:g} falls after "
                    f"max_duration_s={deadline:g}; it will never fire",
                    f"cluster.migrations[{index}]",
                )
        plan = topology.fault_plan
        if plan is None:
            return
        for index, fault in enumerate(plan.node_faults):
            if fault.at_s >= deadline:
                self.warning(
                    f"fault window [{fault.at_s:g}, {fault.recover_at_s:g}) "
                    f"falls after max_duration_s={deadline:g}; it will never fire",
                    f"cluster.faults[{index}]",
                )
            elif fault.recover_at_s > deadline:
                self.warning(
                    f"fault window [{fault.at_s:g}, {fault.recover_at_s:g}) "
                    f"extends past max_duration_s={deadline:g}; the node "
                    f"never recovers within the run",
                    f"cluster.faults[{index}]",
                )
        for index, deg in enumerate(plan.link_faults):
            if deg.start_s >= deadline:
                self.warning(
                    f"degradation window [{deg.start_s:g}, {deg.end_s:g}) "
                    f"falls after max_duration_s={deadline:g}; it will never fire",
                    f"cluster.degradations[{index}]",
                )

    # -- entry point ---------------------------------------------------------
    def compile(self) -> Optional[CompiledScenario]:
        data = self.doc.data
        if not isinstance(data, dict):
            self.error("top level must be a mapping of scenario keys", "")
            return None
        has_family = "family" in data
        has_scenario = "scenario" in data
        if has_family and has_scenario:
            self.error(
                "document mixes family mode ('family') and explicit mode "
                "('scenario'); pick one",
                "scenario",
            )
            return None
        if not has_family and not has_scenario:
            self.error(
                "document must declare either 'family: <registered name>' or "
                "'scenario: <name>'",
                "",
            )
            return None
        if has_family:
            return self.compile_family(data)
        return self.compile_explicit(data)


def compile_document(doc: Document) -> CompiledScenario:
    """Compile a loaded document; raise :class:`DslError` on any error."""
    compiler = _Compiler(doc)
    compiled = compiler.compile()
    diagnostics = sorted(compiler.diagnostics, key=sort_key)
    if compiled is None or compiler.failed:
        raise DslError(filename=doc.filename, diagnostics=diagnostics)
    compiled.warnings = [d for d in diagnostics if not d.is_error]
    return compiled


def compile_text(text: str, filename: str = "<scenario>") -> CompiledScenario:
    return compile_document(load_document(text, filename))


def compile_file(path: str) -> CompiledScenario:
    return compile_document(load_file(path))


def compile_spec_string(
    text: str, scale: float, cluster: Optional[Mapping[str, Any]] = None
) -> CompiledScenario:
    """Compile spec string *text* (``many-vms:n=8``) at *scale*.

    The string becomes the family-mode document ``<command line>``, with
    *cluster* as its ``cluster:`` block; ``smartmem run``, ``sweep`` and
    the sweep workers all resolve spec strings here.  Raises
    :class:`ScenarioError` for a malformed string and :class:`DslError`
    for a document the compiler rejects.
    """
    family, params = parse_scenario_spec(text)
    data = {"family": family, "scale": scale, "params": params}
    if cluster:
        data["cluster"] = cluster
    return compile_document(Document(data, filename="<command line>"))


def lint_document(doc: Document) -> List[Diagnostic]:
    """All diagnostics for a document; never raises."""
    compiler = _Compiler(doc)
    compiler.compile()
    return sorted(compiler.diagnostics, key=sort_key)


def lint_text(text: str, filename: str = "<scenario>") -> List[Diagnostic]:
    try:
        doc = load_document(text, filename)
    except DslError as exc:
        return list(exc.diagnostics)
    return lint_document(doc)


def lint_file(path: str) -> List[Diagnostic]:
    try:
        doc = load_file(path)
    except DslError as exc:
        return list(exc.diagnostics)
    except OSError as exc:
        return [Diagnostic(severity=ERROR, message=f"cannot read {path!r}: {exc}")]
    return lint_document(doc)
