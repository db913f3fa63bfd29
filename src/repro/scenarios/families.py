"""Parametric scenario families beyond the paper's four.

The paper evaluates four fixed three-VM scenarios (Table II).  These
families extend the scenario dimension of a sweep: each is a factory over
one or two numeric parameters, selectable with a spec string such as
``"many-vms:n=8"`` (see :mod:`repro.scenarios.registry` for the syntax).

* ``many-vms`` — N homogeneous over-committed VMs all running
  graph-analytics; stresses policies as the number of competitors grows.
* ``churn`` — N usemem VMs starting in staggered waves, so early waves
  finish and release tmem while later waves are still ramping up;
  stresses how quickly a policy reassigns freed capacity.
* ``bursty`` — steady graph-analytics VMs plus usemem spike VMs whose
  load is *phase-triggered*: each spike starts when VM1 enters a given
  PageRank iteration, producing sudden demand surges mid-run.

Two families run on *multi-node clusters* (one simulation engine, one
hypervisor + tmem pool + Memory Manager per node, remote-tmem spill over
a modeled interconnect — see :mod:`repro.cluster`):

* ``cluster`` — N symmetric nodes, each hosting M graph-analytics VMs
  with a contended per-node pool; an equal-share coordinator keeps the
  capacities level.  The cluster baseline.
* ``hotnode`` — one overloaded node (usemem VMs far over-committing its
  small pool) among idle peers with large pools; overflow puts spill to
  the peers and the pressure-proportional coordinator migrates capacity
  towards the hot node.
* ``contended`` — hotnode-style spill pressure over a deliberately
  narrow interconnect with per-link FIFO queueing: concurrent spills
  queue instead of overlapping for free, the ``link_queue/*`` traces
  show the backlog, and the spill-feedback coordinator pulls capacity
  towards the node generating the traffic.
* ``failover`` — every node overflows into one large "vault" node
  (node2); at ``fail_at`` the vault dies: its hosted remote pages are
  lost (frontswap refaults from disk), its own VMs fail over to
  survivors with a modeled state copy over the contended channel.
* ``migrate`` — a planned live migration: the loaded VM is suspended
  mid-run, its resident state crosses the interconnect, and it resumes
  on the peer node, keeping its identity and statistics.
* ``faulty`` — the failover vault dies *transiently*: a declarative
  :class:`~repro.cluster.faults.FaultPlan` takes it down at ``fail_at``
  and rejoins it ``down_s`` later with empty pools; its VM fails over,
  then fails back when the node returns.
* ``flaky`` — ``faulty`` plus link degradation: one link runs a lossy,
  throttled, high-latency window and the reverse link flaps into a hard
  partition, so the spill path retries with backoff, trips a per-peer
  circuit breaker and routes around the sick link until it heals.
* ``shard`` — the decoupled twin of ``cluster``: the same per-node load
  with no spill, no coordinator and no contention, so the nodes never
  interact and :class:`~repro.cluster.sharded.ShardedClusterRunner` can
  run one engine per node in parallel worker processes.

All sizes honour the library's ``scale`` convention (multiply every MB
figure by ``scale``), so the families run at paper sizes (``scale=1.0``)
or at test sizes (``scale<=0.25``) alike.  Each family declares its
parameters' bounds at registration; the registry checks every call
against them (and the scale) before a factory runs.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..cluster.faults import FaultPlan, LinkDegradation, NodeFault
from .library import _scaled
from .registry import register_scenario
from .spec import (
    ClusterTopology,
    NodeFailure,
    NodeSpec,
    PhaseTrigger,
    ScenarioSpec,
    VMSpec,
    VmMigration,
    WorkloadSpec,
)

__all__ = [
    "many_vms_scenario",
    "churn_scenario",
    "bursty_scenario",
    "cluster_scenario",
    "hotnode_scenario",
    "contended_scenario",
    "failover_scenario",
    "migrate_scenario",
    "faulty_scenario",
    "flaky_scenario",
    "shard_scenario",
]

#: The narrow spill interconnect of the contended and vault families.  A
#: tenth of the default 10 GbE: each 4 KiB page occupies the link long
#: enough for concurrent spill bursts to queue.
_NARROW_SPILL = dict(
    remote_spill=True,
    contended=True,
    interconnect_bandwidth_bytes_s=1.25e8,
    coordinator="spill-feedback:percent=15",
)

#: ``(node name, VMs, tmem_mb, host_memory_mb, zone)``: one node of a layout.
Row = Tuple[str, Sequence[VMSpec], int, int, Optional[str]]


def _name_value(value: float) -> str:
    """*value* for a spec name, so the name keeps every parameter exactly:
    ``:g`` when that text parses back to it, else ``repr`` — of the int
    for an integral value, which a spec string reads as an int."""
    text = f"{value:g}"
    if float(text) == value:
        return text
    return repr(int(value) if float(value).is_integer() else value)


def _vm(
    name: str,
    ram_mb: int,
    swap_mb: int,
    kind: str,
    params: Mapping[str, Any],
    *,
    start_at: Optional[float] = 0.0,
    label: str = "",
) -> VMSpec:
    """A one-vCPU VM running one *kind* job (labelled *kind* by default)."""
    job = WorkloadSpec(kind=kind, params=params, start_at=start_at, label=label or kind)
    return VMSpec(name=name, ram_mb=ram_mb, vcpus=1, swap_mb=swap_mb, jobs=(job,))


def _graph(
    graph_mb: float, rank_vectors_mb: float, iterations: int, scale: float
) -> Dict[str, int]:
    """graph-analytics params for a graph and rank vectors of these sizes."""
    return {
        "graph_mb": _scaled(graph_mb, scale),
        "rank_vectors_mb": _scaled(rank_vectors_mb, scale),
        "iterations": iterations,
    }


def _usemem_up_to(max_mb: float, scale: float) -> Dict[str, int]:
    """usemem params allocating 128 MB steps up to *max_mb* (one step at least).

    With ``max_mb = 2 * ram_mb`` a VM sweeps twice its RAM: far more
    overflow than a small pool can take, so pages must spill or swap.
    """
    step = _scaled(128, scale)
    return {
        "start_mb": step,
        "increment_mb": step,
        "max_mb": max(step, _scaled(max_mb, scale)),
    }


def _layout(rows: Sequence[Row]) -> Tuple[Tuple[VMSpec, ...], Tuple[NodeSpec, ...]]:
    """``(vms, node specs)`` of a cluster given as :data:`Row` rows."""
    vms = tuple(vm for row in rows for vm in row[1])
    nodes = tuple(
        NodeSpec(
            name=name,
            vm_names=tuple(vm.name for vm in node_vms),
            tmem_mb=tmem_mb,
            host_memory_mb=host_memory_mb,
            zone=zone,
        )
        for name, node_vms, tmem_mb, host_memory_mb, zone in rows
    )
    return vms, nodes


def _grid(
    nodes: int, vms_per_node: int, ram_mb: int, scale: float
) -> Tuple[int, Tuple[Tuple[VMSpec, ...], Tuple[NodeSpec, ...]]]:
    """``(node tmem, layout)`` of N nodes x M graph-analytics VMs each.

    Every VM over-commits ~1.8x, mirroring scenario-2's 750/512 ratio,
    and each pool is half its node's VM RAM, so it stays contended.
    """
    vm_ram = _scaled(ram_mb, scale)
    params = _graph(ram_mb * 1.47, ram_mb * 0.35, 8, scale)
    node_tmem = _scaled(ram_mb * vms_per_node / 2, scale)
    rows: List[Row] = [
        (
            f"node{k}",
            [
                _vm(f"n{k}.VM{i}", vm_ram, _scaled(4 * ram_mb, scale),
                    "graph-analytics", params)
                for i in range(1, vms_per_node + 1)
            ],
            node_tmem,
            # Double-pool headroom lets the coordinator grow a node.
            vm_ram * vms_per_node + 2 * node_tmem + 256,
            None,
        )
        for k in range(1, nodes + 1)
    ]
    return node_tmem, _layout(rows)


def _idle_peers(
    nodes: int, vm_ram: int, params: Mapping[str, Any], tmem_mb: int,
    host_memory_mb: int, scale: float,
) -> List[Row]:
    """Rows of node2..nodeN, each running one light graph-analytics VM."""
    return [
        (
            f"node{k}",
            [_vm(f"n{k}.VM1", vm_ram, _scaled(2048, scale), "graph-analytics", params)],
            tmem_mb,
            host_memory_mb,
            None,
        )
        for k in range(2, nodes + 1)
    ]


def _vault_cluster(nodes: int, ram_mb: int, scale: float, *, zoned: bool):
    """``(vms, node specs, vault tmem, total tmem)`` of the vault families.

    ``nodes - 1`` overflowing usemem nodes spill into node2's large vault
    pool, and node2 runs a long graph-analytics VM so a fault hits a busy
    guest.  Survivors keep enough fallow DRAM to adopt the vault node's
    VM (its RAM) on failover.  With *zoned*, nodes alternate between two
    zones so the degraded spill path's rack-aware peer ranking has
    something to prefer.
    """
    vm_ram = _scaled(ram_mb, scale)
    swap_mb = _scaled(4 * ram_mb, scale)
    hot = _usemem_up_to(2 * ram_mb, scale)
    # Enough iterations that the vault VM is still mid-run when the node
    # dies, so failover moves a busy guest, not an idle one.
    light = _graph(ram_mb * 0.6, ram_mb * 0.15, 16, scale)
    small_tmem = _scaled(96, scale)
    vault_tmem = _scaled(1024, scale)
    rows: List[Row] = []
    for k in range(1, nodes + 1):
        zone = f"z{1 + (k % 2)}" if zoned else None
        if k == 2:
            vm = _vm("n2.VM1", vm_ram, swap_mb, "graph-analytics", light)
            rows.append(("node2", [vm], vault_tmem, vm_ram + vault_tmem + 256, zone))
        else:
            vm = _vm(f"n{k}.VM1", vm_ram, swap_mb, "usemem", hot)
            host_memory_mb = 2 * vm_ram + small_tmem + vault_tmem + 256
            rows.append((f"node{k}", [vm], small_tmem, host_memory_mb, zone))
    vms, node_specs = _layout(rows)
    return vms, node_specs, vault_tmem, vault_tmem + small_tmem * (nodes - 1)


def _vault_outage(
    fail_at: float, down_s: float, *link_faults: LinkDegradation, **knobs: Any
) -> FaultPlan:
    """A fault plan taking node2 down at *fail_at* for *down_s*, with failback."""
    return FaultPlan(
        node_faults=(NodeFault("node2", fail_at, fail_at + down_s, failback=True),),
        link_faults=link_faults,
        **knobs,
    )


@register_scenario(
    "many-vms",
    param_docs={
        "n": "number of homogeneous graph-analytics VMs",
        "ram_mb": "RAM per VM (the pool is half the aggregate RAM)",
    },
    bounds={"n": ">= 1", "ram_mb": "> 0"},
)
def many_vms_scenario(
    *, scale: float = 1.0, n: int = 6, ram_mb: int = 512
) -> ScenarioSpec:
    """N homogeneous over-committed VMs all running graph-analytics."""
    # ~1.8x over-commit per VM, mirroring scenario-2's 750/512 ratio.
    params = _graph(ram_mb * 1.47, ram_mb * 0.35, 8, scale)
    vms = tuple(
        _vm(f"VM{i}", _scaled(ram_mb, scale), _scaled(4 * ram_mb, scale),
            "graph-analytics", params)
        for i in range(1, n + 1)
    )
    return ScenarioSpec(
        # The name carries every parameter so distinct configurations of
        # the family are distinguishable in reports and archived results.
        name=f"many-vms:n={n},ram_mb={ram_mb}",
        description=(
            f"{n} homogeneous VMs x {ram_mb} MB RAM all run graph-analytics "
            f"from t=0; {ram_mb * n // 2} MB tmem (half the aggregate RAM)"
        ),
        vms=vms,
        # Half of the aggregate VM RAM, so the pool stays contended at any N.
        tmem_mb=_scaled(ram_mb * n / 2, scale),
    )


@register_scenario(
    "churn",
    param_docs={
        "n": "total number of usemem VMs",
        "wave_s": "delay between consecutive start waves",
        "per_wave": "VMs launched per wave",
    },
    bounds={"n": ">= 1", "wave_s": ">= 0", "per_wave": ">= 1"},
)
def churn_scenario(
    *, scale: float = 1.0, n: int = 6, wave_s: float = 40.0, per_wave: int = 2
) -> ScenarioSpec:
    """N usemem VMs starting in staggered waves (VM arrival/departure churn)."""
    step = _scaled(128, scale)
    params = {"start_mb": step, "increment_mb": step, "max_mb": step * 8}
    vms = tuple(
        _vm(f"VM{i}", _scaled(512, scale), _scaled(2048, scale), "usemem", params,
            start_at=((i - 1) // per_wave) * wave_s)
        for i in range(1, n + 1)
    )
    waves = (n + per_wave - 1) // per_wave
    return ScenarioSpec(
        name=f"churn:n={n},wave_s={_name_value(wave_s)},per_wave={per_wave}",
        description=(
            f"{n} VMs x 512 MB RAM run usemem in {waves} waves of {per_wave} "
            f"every {wave_s:g} s; early waves free tmem while later waves "
            "ramp up; 512 MB tmem"
        ),
        vms=vms,
        tmem_mb=_scaled(512, scale),
    )


@register_scenario(
    "bursty",
    param_docs={
        "n": "number of steady graph-analytics VMs",
        "spikes": "number of phase-triggered usemem spike VMs",
        "spike_mb": "allocation ceiling of each spike VM",
    },
    bounds={"n": ">= 1", "spikes": "1..3", "spike_mb": "> 0"},
)
def bursty_scenario(
    *, scale: float = 1.0, n: int = 2, spikes: int = 1, spike_mb: int = 768
) -> ScenarioSpec:
    """Steady graph-analytics VMs hit by phase-triggered usemem load spikes."""
    graph = _graph(750, 180, 8, scale)
    steady = tuple(
        _vm(f"VM{i}", _scaled(512, scale), _scaled(2048, scale),
            "graph-analytics", graph)
        for i in range(1, n + 1)
    )
    spike = _usemem_up_to(spike_mb, scale)
    # No absolute start time: the phase triggers below fire the spikes.
    spike_vms = tuple(
        _vm(f"SPIKE{k}", _scaled(512, scale), _scaled(2048, scale), "usemem",
            spike, start_at=None, label=f"usemem-spike{k}")
        for k in range(1, spikes + 1)
    )
    # Spike k launches when VM1 enters its (2k)-th PageRank iteration, so
    # successive spikes land in successive phases of the steady workload.
    triggers = tuple(
        PhaseTrigger(watch_vm="VM1", phase_prefix=f"pagerank-{2 * k}",
                     start_vm=f"SPIKE{k}")
        for k in range(1, spikes + 1)
    )
    return ScenarioSpec(
        name=f"bursty:n={n},spikes={spikes},spike_mb={spike_mb}",
        description=(
            f"{n} VMs x 512 MB RAM run graph-analytics; {spikes} usemem "
            f"spike VM(s) of up to {spike_mb} MB are launched when VM1 "
            "reaches PageRank iterations 2/4/6; 768 MB tmem"
        ),
        vms=steady + spike_vms,
        tmem_mb=_scaled(768, scale),
        phase_triggers=triggers,
    )


@register_scenario(
    "cluster",
    param_docs={
        "nodes": "number of symmetric cluster nodes",
        "vms_per_node": "graph-analytics VMs per node",
        "ram_mb": "RAM per VM (each node's pool is half its VM RAM)",
    },
    bounds={"nodes": ">= 1", "vms_per_node": ">= 1", "ram_mb": "> 0"},
)
def cluster_scenario(
    *, scale: float = 1.0, nodes: int = 2, vms_per_node: int = 2,
    ram_mb: int = 512,
) -> ScenarioSpec:
    """N symmetric nodes of M over-committed graph-analytics VMs each."""
    node_tmem, (vms, node_specs) = _grid(nodes, vms_per_node, ram_mb, scale)
    return ScenarioSpec(
        name=f"cluster:nodes={nodes},vms_per_node={vms_per_node},ram_mb={ram_mb}",
        description=(
            f"{nodes} nodes x {vms_per_node} graph-analytics VMs "
            f"({ram_mb} MB RAM each); {node_tmem} MB tmem per node, "
            "remote-tmem spill, equal-share capacity coordination"
        ),
        vms=vms,
        tmem_mb=node_tmem * nodes,
        topology=ClusterTopology(
            nodes=node_specs, remote_spill=True, coordinator="equal-share"
        ),
    )


@register_scenario(
    "hotnode",
    param_docs={
        "nodes": "total nodes (1 hot + idle peers)",
        "ram_mb": "RAM per VM",
        "hot_vms": "usemem VMs on the overloaded node",
    },
    bounds={"nodes": ">= 2", "ram_mb": "> 0", "hot_vms": ">= 1"},
)
def hotnode_scenario(
    *, scale: float = 1.0, nodes: int = 3, ram_mb: int = 512, hot_vms: int = 2
) -> ScenarioSpec:
    """One overloaded node spills into its idle peers' tmem pools."""
    vm_ram = _scaled(ram_mb, scale)
    hot = _usemem_up_to(2 * ram_mb, scale)
    hot_tmem = _scaled(128, scale)
    peer_tmem = _scaled(768, scale)
    hot_node: Row = (
        "hot",
        [
            _vm(f"hot.VM{i}", vm_ram, _scaled(4 * ram_mb, scale), "usemem", hot,
                label="usemem-hot")
            for i in range(1, hot_vms + 1)
        ],
        hot_tmem,
        # Headroom so pressure-proportional rebalancing can grow the
        # hot node's pool well beyond its starting size.
        vm_ram * hot_vms + hot_tmem + peer_tmem + 256,
        None,
    )
    # Peers run a light workload that fits in RAM and barely touches
    # their (large) pools — idle remote capacity for the hot node.
    peer = _graph(ram_mb * 0.6, ram_mb * 0.15, 4, scale)
    vms, node_specs = _layout([
        hot_node,
        *_idle_peers(nodes, vm_ram, peer, peer_tmem, vm_ram + 2 * peer_tmem + 256,
                     scale),
    ])
    return ScenarioSpec(
        name=f"hotnode:nodes={nodes},ram_mb={ram_mb},hot_vms={hot_vms}",
        description=(
            f"1 hot node ({hot_vms} usemem VMs over-committing a "
            f"{hot_tmem} MB pool) + {nodes - 1} idle peers with "
            f"{peer_tmem} MB pools; overflow spills over the interconnect "
            "and pressure-proportional coordination chases it"
        ),
        vms=vms,
        tmem_mb=hot_tmem + peer_tmem * (nodes - 1),
        topology=ClusterTopology(
            nodes=node_specs,
            remote_spill=True,
            coordinator="pressure-prop:percent=15",
        ),
    )


@register_scenario(
    "contended",
    param_docs={
        "nodes": "number of spill-heavy nodes",
        "ram_mb": "RAM per VM",
        "hot_vms": "over-committing usemem VMs per node",
    },
    bounds={"nodes": ">= 2", "ram_mb": "> 0", "hot_vms": ">= 1"},
)
def contended_scenario(
    *, scale: float = 1.0, nodes: int = 3, ram_mb: int = 512, hot_vms: int = 2
) -> ScenarioSpec:
    """Spill-heavy cluster on a narrow, FIFO-queued interconnect."""
    vm_ram = _scaled(ram_mb, scale)
    # Every hot VM sweeps 2x its RAM: the small local pools overflow
    # constantly, so the interconnect carries sustained spill traffic
    # from every node at once and the per-link FIFOs actually queue.
    hot = _usemem_up_to(2 * ram_mb, scale)
    hot_tmem = _scaled(96, scale)
    vault_tmem = _scaled(1024, scale)
    vms, node_specs = _layout([
        (
            f"node{k}",
            [
                _vm(f"n{k}.VM{i}", vm_ram, _scaled(4 * ram_mb, scale), "usemem", hot)
                for i in range(1, hot_vms + 1)
            ],
            hot_tmem,
            vm_ram * hot_vms + hot_tmem + vault_tmem + 256,
            None,
        )
        for k in range(1, nodes + 1)
    ])
    return ScenarioSpec(
        name=f"contended:nodes={nodes},ram_mb={ram_mb},hot_vms={hot_vms}",
        description=(
            f"{nodes} nodes x {hot_vms} usemem VMs over-committing "
            f"{hot_tmem} MB pools; spills cross a ~1 GbE interconnect "
            "with per-link FIFO queueing and spill-feedback coordination"
        ),
        vms=vms,
        tmem_mb=hot_tmem * nodes,
        topology=ClusterTopology(nodes=node_specs, **_NARROW_SPILL),
    )


@register_scenario(
    "failover",
    param_docs={
        "nodes": "total nodes (node2 is the spill vault)",
        "ram_mb": "RAM per VM",
        "fail_at": "instant the vault node dies (permanently)",
    },
    bounds={"nodes": ">= 3", "ram_mb": "> 0", "fail_at": "> 0"},
)
def failover_scenario(
    *, scale: float = 1.0, nodes: int = 3, ram_mb: int = 512,
    fail_at: float = 30.0,
) -> ScenarioSpec:
    """A spill vault node dies mid-run; its VMs fail over to survivors."""
    fail_at = float(fail_at)
    vms, node_specs, vault_tmem, tmem_mb = _vault_cluster(
        nodes, ram_mb, scale, zoned=False
    )
    return ScenarioSpec(
        name=f"failover:nodes={nodes},ram_mb={ram_mb},fail_at={_name_value(fail_at)}",
        description=(
            f"{nodes - 1} overflowing nodes spill into node2's "
            f"{vault_tmem} MB vault pool; node2 fails at t={fail_at:g}s — "
            "spilled frontswap pages refault from disk, node2's VM "
            "migrates to a survivor over the contended interconnect"
        ),
        vms=vms,
        tmem_mb=tmem_mb,
        topology=ClusterTopology(
            nodes=node_specs,
            failures=(NodeFailure(node="node2", at_s=fail_at),),
            **_NARROW_SPILL,
        ),
    )


@register_scenario(
    "faulty",
    param_docs={
        "nodes": "total nodes (node2 is the spill vault)",
        "ram_mb": "RAM per VM",
        "fail_at": "instant the vault node dies",
        "down_s": "outage duration before the vault rejoins",
    },
    bounds={"nodes": ">= 3", "ram_mb": "> 0", "fail_at": "> 0", "down_s": "> 0"},
)
def faulty_scenario(
    *, scale: float = 1.0, nodes: int = 3, ram_mb: int = 512,
    fail_at: float = 10.0, down_s: float = 15.0,
) -> ScenarioSpec:
    """The spill vault dies transiently and rejoins with VM failback."""
    fail_at = float(fail_at)
    down_s = float(down_s)
    vms, node_specs, vault_tmem, tmem_mb = _vault_cluster(
        nodes, ram_mb, scale, zoned=True
    )
    return ScenarioSpec(
        name=f"faulty:nodes={nodes},ram_mb={ram_mb},fail_at={_name_value(fail_at)},"
             f"down_s={_name_value(down_s)}",
        description=(
            f"{nodes - 1} overflowing nodes spill into node2's "
            f"{vault_tmem} MB vault pool; node2 dies at t={fail_at:g}s and "
            f"rejoins {down_s:g}s later with empty pools — its VM fails "
            "over and then fails back to the recovered node"
        ),
        vms=vms,
        tmem_mb=tmem_mb,
        topology=ClusterTopology(
            nodes=node_specs,
            fault_plan=_vault_outage(fail_at, down_s),
            **_NARROW_SPILL,
        ),
    )


@register_scenario(
    "flaky",
    param_docs={
        "nodes": "total nodes (node2 is the spill vault)",
        "ram_mb": "RAM per VM",
        "fail_at": "instant the vault node dies",
        "down_s": "outage duration before the vault rejoins",
    },
    bounds={"nodes": ">= 3", "ram_mb": "> 0", "fail_at": "> 0", "down_s": "> 0"},
)
def flaky_scenario(
    *, scale: float = 1.0, nodes: int = 3, ram_mb: int = 512,
    fail_at: float = 10.0, down_s: float = 15.0,
) -> ScenarioSpec:
    """Transient vault failure plus lossy, flapping interconnect links."""
    fail_at = float(fail_at)
    down_s = float(down_s)
    vms, node_specs, vault_tmem, tmem_mb = _vault_cluster(
        nodes, ram_mb, scale, zoned=True
    )
    # The degraded window straddles the node fault; the reverse link
    # flaps into a hard partition around the failure instant, so spill
    # retries time out, the circuit breaker opens, and a post-heal probe
    # closes it again.
    degrade_start = fail_at / 2.0
    degrade_end = fail_at + 2.0 * down_s / 3.0
    part_start = 0.8 * fail_at
    part_end = 1.2 * fail_at
    # The breaker cooldown is tied to the fault window so the half-open
    # probe fires while the vault is still down: node3's only live peer
    # is then node1, which forces a probe and a full open -> close cycle
    # once the partition has healed.
    plan = _vault_outage(
        fail_at,
        down_s,
        LinkDegradation("node1", "node3", degrade_start, degrade_end,
                        bandwidth_factor=0.25, extra_latency_s=0.002,
                        loss_probability=0.05),
        LinkDegradation("node3", "node1", part_start, part_end, partition=True),
        breaker_cooldown_s=max(0.5, down_s / 3.0),
    )
    return ScenarioSpec(
        name=f"flaky:nodes={nodes},ram_mb={ram_mb},fail_at={_name_value(fail_at)},"
             f"down_s={_name_value(down_s)}",
        description=(
            f"faulty:nodes={nodes} plus link degradation: node1->node3 "
            f"runs lossy and throttled over [{degrade_start:g}, "
            f"{degrade_end:g}]s, node3->node1 partitions over "
            f"[{part_start:g}, {part_end:g}]s — the spill path retries "
            "with backoff, trips the per-peer breaker and heals"
        ),
        vms=vms,
        tmem_mb=tmem_mb,
        topology=ClusterTopology(nodes=node_specs, fault_plan=plan, **_NARROW_SPILL),
    )


@register_scenario(
    "migrate",
    param_docs={
        "nodes": "total nodes (n1.VM1 migrates to node2)",
        "ram_mb": "RAM per VM",
        "at": "instant the live migration starts",
    },
    bounds={"nodes": ">= 2", "ram_mb": "> 0", "at": "> 0"},
)
def migrate_scenario(
    *, scale: float = 1.0, nodes: int = 2, ram_mb: int = 512, at: float = 20.0
) -> ScenarioSpec:
    """Planned live migration of a loaded VM onto an idle peer node."""
    at = float(at)
    vm_ram = _scaled(ram_mb, scale)
    pool_mb = _scaled(256, scale)
    hot = _vm("n1.VM1", vm_ram, _scaled(4 * ram_mb, scale), "usemem",
              _usemem_up_to(2 * ram_mb, scale))
    idle = _graph(ram_mb * 0.5, ram_mb * 0.12, 4, scale)
    vms, node_specs = _layout([
        ("node1", [hot], pool_mb, vm_ram + pool_mb + 256, None),
        # Peers keep headroom for the incoming VM's RAM.
        *_idle_peers(nodes, vm_ram, idle, pool_mb, 2 * vm_ram + pool_mb + 256, scale),
    ])
    return ScenarioSpec(
        name=f"migrate:nodes={nodes},ram_mb={ram_mb},at={_name_value(at)}",
        description=(
            f"n1.VM1 (usemem, {ram_mb} MB) live-migrates to node2 at "
            f"t={at:g}s: suspended, resident state copied over the "
            "contended interconnect, resumed on the peer"
        ),
        vms=vms,
        tmem_mb=pool_mb * nodes,
        topology=ClusterTopology(
            nodes=node_specs,
            remote_spill=True,
            contended=True,
            migrations=(VmMigration(vm="n1.VM1", to_node="node2", at_s=at),),
        ),
    )


@register_scenario(
    "shard",
    param_docs={
        "nodes": "number of decoupled nodes",
        "vms_per_node": "graph-analytics VMs per node",
        "ram_mb": "RAM per VM (each node's pool is half its VM RAM)",
    },
    bounds={"nodes": ">= 1", "vms_per_node": ">= 1", "ram_mb": "> 0"},
)
def shard_scenario(
    *, scale: float = 1.0, nodes: int = 4, vms_per_node: int = 2,
    ram_mb: int = 512,
) -> ScenarioSpec:
    """N *decoupled* nodes of M over-committed graph-analytics VMs each.

    The shard-friendly twin of ``cluster``: same per-node load, but no
    remote-tmem spill, no capacity coordinator and an uncontended
    interconnect, so the nodes never interact.  This is the topology
    class :class:`~repro.cluster.sharded.ShardedClusterRunner` can split
    one-engine-per-node across worker processes while staying
    bit-identical to the shared-engine run; the coupled families run
    the exact shared engine in the calling process instead.
    """
    node_tmem, (vms, node_specs) = _grid(nodes, vms_per_node, ram_mb, scale)
    return ScenarioSpec(
        name=f"shard:nodes={nodes},vms_per_node={vms_per_node},ram_mb={ram_mb}",
        description=(
            f"{nodes} decoupled nodes x {vms_per_node} graph-analytics VMs "
            f"({ram_mb} MB RAM each); {node_tmem} MB tmem per node, no "
            "spill or coordination — shardable one engine per node"
        ),
        vms=vms,
        tmem_mb=node_tmem * nodes,
        topology=ClusterTopology(nodes=node_specs, remote_spill=False),
    )
