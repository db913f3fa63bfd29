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
or at test sizes (``scale<=0.25``) alike.
"""

from __future__ import annotations

from ..errors import ScenarioError
from .library import _check_scale, _scaled
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


@register_scenario(
    "many-vms",
    parameters=("n", "ram_mb"),
    param_docs={
        "n": "number of homogeneous graph-analytics VMs",
        "ram_mb": "RAM per VM (the pool is half the aggregate RAM)",
    },
)
def many_vms_scenario(
    *, scale: float = 1.0, n: int = 6, ram_mb: int = 512
) -> ScenarioSpec:
    """N homogeneous over-committed VMs all running graph-analytics."""
    _check_scale(scale)
    n = int(n)
    if n < 1:
        raise ScenarioError(f"many-vms needs n >= 1, got {n}")
    if ram_mb <= 0:
        raise ScenarioError(f"many-vms needs ram_mb > 0, got {ram_mb}")
    workload_params = {
        # ~1.8x over-commit per VM, mirroring scenario-2's 750/512 ratio.
        "graph_mb": _scaled(ram_mb * 1.47, scale),
        "rank_vectors_mb": _scaled(ram_mb * 0.35, scale),
        "iterations": 8,
    }
    vms = tuple(
        VMSpec(
            name=f"VM{i}",
            ram_mb=_scaled(ram_mb, scale),
            vcpus=1,
            swap_mb=_scaled(4 * ram_mb, scale),
            jobs=(
                WorkloadSpec(kind="graph-analytics", params=workload_params,
                             start_at=0.0, label="graph-analytics"),
            ),
        )
        for i in range(1, n + 1)
    )
    # Half of the aggregate VM RAM, so the pool stays contended at any N.
    tmem_mb = _scaled(ram_mb * n / 2, scale)
    return ScenarioSpec(
        # The name carries every parameter so distinct configurations of
        # the family are distinguishable in reports and archived results.
        name=f"many-vms:n={n},ram_mb={ram_mb}",
        description=(
            f"{n} homogeneous VMs x {ram_mb} MB RAM all run graph-analytics "
            f"from t=0; {ram_mb * n // 2} MB tmem (half the aggregate RAM)"
        ),
        vms=vms,
        tmem_mb=tmem_mb,
    )


@register_scenario(
    "churn",
    parameters=("n", "wave_s", "per_wave"),
    param_docs={
        "n": "total number of usemem VMs",
        "wave_s": "delay between consecutive start waves",
        "per_wave": "VMs launched per wave",
    },
)
def churn_scenario(
    *, scale: float = 1.0, n: int = 6, wave_s: float = 40.0, per_wave: int = 2
) -> ScenarioSpec:
    """N usemem VMs starting in staggered waves (VM arrival/departure churn)."""
    _check_scale(scale)
    n = int(n)
    per_wave = int(per_wave)
    if n < 1:
        raise ScenarioError(f"churn needs n >= 1, got {n}")
    if per_wave < 1:
        raise ScenarioError(f"churn needs per_wave >= 1, got {per_wave}")
    if wave_s < 0:
        raise ScenarioError(f"churn needs wave_s >= 0, got {wave_s}")
    ram_mb = _scaled(512, scale)
    increment_mb = _scaled(128, scale)
    usemem_params = {
        "start_mb": increment_mb,
        "increment_mb": increment_mb,
        "max_mb": increment_mb * 8,
    }
    vms = tuple(
        VMSpec(
            name=f"VM{i}",
            ram_mb=ram_mb,
            vcpus=1,
            swap_mb=_scaled(2048, scale),
            jobs=(
                WorkloadSpec(
                    kind="usemem",
                    params=usemem_params,
                    start_at=((i - 1) // per_wave) * wave_s,
                    label="usemem",
                ),
            ),
        )
        for i in range(1, n + 1)
    )
    waves = (n + per_wave - 1) // per_wave
    return ScenarioSpec(
        name=f"churn:n={n},wave_s={wave_s:g},per_wave={per_wave}",
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
    parameters=("n", "spikes", "spike_mb"),
    param_docs={
        "n": "number of steady graph-analytics VMs",
        "spikes": "number of phase-triggered usemem spike VMs (1..3)",
        "spike_mb": "allocation ceiling of each spike VM",
    },
)
def bursty_scenario(
    *, scale: float = 1.0, n: int = 2, spikes: int = 1, spike_mb: int = 768
) -> ScenarioSpec:
    """Steady graph-analytics VMs hit by phase-triggered usemem load spikes."""
    _check_scale(scale)
    n = int(n)
    spikes = int(spikes)
    if n < 1:
        raise ScenarioError(f"bursty needs n >= 1, got {n}")
    if not 1 <= spikes <= 3:
        raise ScenarioError(f"bursty supports 1..3 spikes, got {spikes}")
    if spike_mb <= 0:
        raise ScenarioError(f"bursty needs spike_mb > 0, got {spike_mb}")
    graph_params = {
        "graph_mb": _scaled(750, scale),
        "rank_vectors_mb": _scaled(180, scale),
        "iterations": 8,
    }
    steady = tuple(
        VMSpec(
            name=f"VM{i}",
            ram_mb=_scaled(512, scale),
            vcpus=1,
            swap_mb=_scaled(2048, scale),
            jobs=(
                WorkloadSpec(kind="graph-analytics", params=graph_params,
                             start_at=0.0, label="graph-analytics"),
            ),
        )
        for i in range(1, n + 1)
    )
    increment_mb = _scaled(128, scale)
    spike_params = {
        "start_mb": increment_mb,
        "increment_mb": increment_mb,
        "max_mb": max(increment_mb, _scaled(spike_mb, scale)),
    }
    spike_vms = tuple(
        VMSpec(
            name=f"SPIKE{k}",
            ram_mb=_scaled(512, scale),
            vcpus=1,
            swap_mb=_scaled(2048, scale),
            jobs=(
                # No absolute start time: the phase trigger below fires it.
                WorkloadSpec(kind="usemem", params=spike_params,
                             start_at=None, label=f"usemem-spike{k}"),
            ),
        )
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
    parameters=("nodes", "vms_per_node", "ram_mb"),
    param_docs={
        "nodes": "number of symmetric cluster nodes",
        "vms_per_node": "graph-analytics VMs per node",
        "ram_mb": "RAM per VM (each node's pool is half its VM RAM)",
    },
)
def cluster_scenario(
    *, scale: float = 1.0, nodes: int = 2, vms_per_node: int = 2,
    ram_mb: int = 512,
) -> ScenarioSpec:
    """N symmetric nodes of M over-committed graph-analytics VMs each."""
    _check_scale(scale)
    nodes = int(nodes)
    vms_per_node = int(vms_per_node)
    if nodes < 1:
        raise ScenarioError(f"cluster needs nodes >= 1, got {nodes}")
    if vms_per_node < 1:
        raise ScenarioError(
            f"cluster needs vms_per_node >= 1, got {vms_per_node}"
        )
    if ram_mb <= 0:
        raise ScenarioError(f"cluster needs ram_mb > 0, got {ram_mb}")
    vm_ram = _scaled(ram_mb, scale)
    workload_params = {
        # ~1.8x over-commit per VM, mirroring scenario-2's 750/512 ratio.
        "graph_mb": _scaled(ram_mb * 1.47, scale),
        "rank_vectors_mb": _scaled(ram_mb * 0.35, scale),
        "iterations": 8,
    }
    # Half the aggregate node RAM, so each pool stays contended.
    node_tmem = _scaled(ram_mb * vms_per_node / 2, scale)
    vms = []
    node_specs = []
    for k in range(1, nodes + 1):
        names = []
        for i in range(1, vms_per_node + 1):
            name = f"n{k}.VM{i}"
            names.append(name)
            vms.append(
                VMSpec(
                    name=name,
                    ram_mb=vm_ram,
                    vcpus=1,
                    swap_mb=_scaled(4 * ram_mb, scale),
                    jobs=(
                        WorkloadSpec(kind="graph-analytics",
                                     params=workload_params,
                                     start_at=0.0, label="graph-analytics"),
                    ),
                )
            )
        node_specs.append(
            NodeSpec(
                name=f"node{k}",
                vm_names=tuple(names),
                tmem_mb=node_tmem,
                # Double-pool headroom lets the coordinator grow a node.
                host_memory_mb=vm_ram * vms_per_node + 2 * node_tmem + 256,
            )
        )
    return ScenarioSpec(
        name=f"cluster:nodes={nodes},vms_per_node={vms_per_node},ram_mb={ram_mb}",
        description=(
            f"{nodes} nodes x {vms_per_node} graph-analytics VMs "
            f"({ram_mb} MB RAM each); {node_tmem} MB tmem per node, "
            "remote-tmem spill, equal-share capacity coordination"
        ),
        vms=tuple(vms),
        tmem_mb=node_tmem * nodes,
        topology=ClusterTopology(
            nodes=tuple(node_specs),
            remote_spill=True,
            coordinator="equal-share",
        ),
    )


@register_scenario(
    "hotnode",
    parameters=("nodes", "ram_mb", "hot_vms"),
    param_docs={
        "nodes": "total nodes (1 hot + idle peers)",
        "ram_mb": "RAM per VM",
        "hot_vms": "usemem VMs on the overloaded node",
    },
)
def hotnode_scenario(
    *, scale: float = 1.0, nodes: int = 3, ram_mb: int = 512, hot_vms: int = 2
) -> ScenarioSpec:
    """One overloaded node spills into its idle peers' tmem pools."""
    _check_scale(scale)
    nodes = int(nodes)
    hot_vms = int(hot_vms)
    if nodes < 2:
        raise ScenarioError(f"hotnode needs nodes >= 2, got {nodes}")
    if hot_vms < 1:
        raise ScenarioError(f"hotnode needs hot_vms >= 1, got {hot_vms}")
    if ram_mb <= 0:
        raise ScenarioError(f"hotnode needs ram_mb > 0, got {ram_mb}")
    vm_ram = _scaled(ram_mb, scale)
    increment_mb = _scaled(128, scale)
    usemem_params = {
        "start_mb": increment_mb,
        "increment_mb": increment_mb,
        # Each hot VM sweeps up to 2x its RAM: far more overflow than the
        # hot node's small pool can take, so pages must spill or swap.
        "max_mb": max(increment_mb, _scaled(2 * ram_mb, scale)),
    }
    # Peers run a light workload that fits in RAM and barely touches
    # their (large) pools — idle remote capacity for the hot node.
    peer_params = {
        "graph_mb": _scaled(ram_mb * 0.6, scale),
        "rank_vectors_mb": _scaled(ram_mb * 0.15, scale),
        "iterations": 4,
    }
    hot_tmem = _scaled(128, scale)
    peer_tmem = _scaled(768, scale)

    vms = []
    hot_names = []
    for i in range(1, hot_vms + 1):
        name = f"hot.VM{i}"
        hot_names.append(name)
        vms.append(
            VMSpec(
                name=name,
                ram_mb=vm_ram,
                vcpus=1,
                swap_mb=_scaled(4 * ram_mb, scale),
                jobs=(
                    WorkloadSpec(kind="usemem", params=usemem_params,
                                 start_at=0.0, label="usemem-hot"),
                ),
            )
        )
    node_specs = [
        NodeSpec(
            name="hot",
            vm_names=tuple(hot_names),
            tmem_mb=hot_tmem,
            # Headroom so pressure-proportional rebalancing can grow the
            # hot node's pool well beyond its starting size.
            host_memory_mb=vm_ram * hot_vms + hot_tmem + peer_tmem + 256,
        )
    ]
    for k in range(2, nodes + 1):
        name = f"n{k}.VM1"
        vms.append(
            VMSpec(
                name=name,
                ram_mb=vm_ram,
                vcpus=1,
                swap_mb=_scaled(2048, scale),
                jobs=(
                    WorkloadSpec(kind="graph-analytics", params=peer_params,
                                 start_at=0.0, label="graph-analytics"),
                ),
            )
        )
        node_specs.append(
            NodeSpec(
                name=f"node{k}",
                vm_names=(name,),
                tmem_mb=peer_tmem,
                host_memory_mb=vm_ram + 2 * peer_tmem + 256,
            )
        )
    return ScenarioSpec(
        name=f"hotnode:nodes={nodes},ram_mb={ram_mb},hot_vms={hot_vms}",
        description=(
            f"1 hot node ({hot_vms} usemem VMs over-committing a "
            f"{hot_tmem} MB pool) + {nodes - 1} idle peers with "
            f"{peer_tmem} MB pools; overflow spills over the interconnect "
            "and pressure-proportional coordination chases it"
        ),
        vms=tuple(vms),
        tmem_mb=hot_tmem + peer_tmem * (nodes - 1),
        topology=ClusterTopology(
            nodes=tuple(node_specs),
            remote_spill=True,
            coordinator="pressure-prop:percent=15",
        ),
    )


@register_scenario(
    "contended",
    parameters=("nodes", "ram_mb", "hot_vms"),
    param_docs={
        "nodes": "number of spill-heavy nodes",
        "ram_mb": "RAM per VM",
        "hot_vms": "over-committing usemem VMs per node",
    },
)
def contended_scenario(
    *, scale: float = 1.0, nodes: int = 3, ram_mb: int = 512, hot_vms: int = 2
) -> ScenarioSpec:
    """Spill-heavy cluster on a narrow, FIFO-queued interconnect."""
    _check_scale(scale)
    nodes = int(nodes)
    hot_vms = int(hot_vms)
    if nodes < 2:
        raise ScenarioError(f"contended needs nodes >= 2, got {nodes}")
    if hot_vms < 1:
        raise ScenarioError(f"contended needs hot_vms >= 1, got {hot_vms}")
    if ram_mb <= 0:
        raise ScenarioError(f"contended needs ram_mb > 0, got {ram_mb}")
    vm_ram = _scaled(ram_mb, scale)
    increment_mb = _scaled(128, scale)
    usemem_params = {
        "start_mb": increment_mb,
        "increment_mb": increment_mb,
        # Every hot VM sweeps 2x its RAM: the small local pools overflow
        # constantly, so the interconnect carries sustained spill traffic
        # from every node at once and the per-link FIFOs actually queue.
        "max_mb": max(increment_mb, _scaled(2 * ram_mb, scale)),
    }
    hot_tmem = _scaled(96, scale)
    vault_tmem = _scaled(1024, scale)

    vms = []
    node_specs = []
    for k in range(1, nodes + 1):
        names = []
        for i in range(1, hot_vms + 1):
            name = f"n{k}.VM{i}"
            names.append(name)
            vms.append(
                VMSpec(
                    name=name,
                    ram_mb=vm_ram,
                    vcpus=1,
                    swap_mb=_scaled(4 * ram_mb, scale),
                    jobs=(
                        WorkloadSpec(kind="usemem", params=usemem_params,
                                     start_at=0.0, label="usemem"),
                    ),
                )
            )
        node_specs.append(
            NodeSpec(
                name=f"node{k}",
                vm_names=tuple(names),
                tmem_mb=hot_tmem,
                host_memory_mb=(
                    vm_ram * hot_vms + hot_tmem + vault_tmem + 256
                ),
            )
        )
    return ScenarioSpec(
        name=f"contended:nodes={nodes},ram_mb={ram_mb},hot_vms={hot_vms}",
        description=(
            f"{nodes} nodes x {hot_vms} usemem VMs over-committing "
            f"{hot_tmem} MB pools; spills cross a ~1 GbE interconnect "
            "with per-link FIFO queueing and spill-feedback coordination"
        ),
        vms=tuple(vms),
        tmem_mb=hot_tmem * nodes,
        topology=ClusterTopology(
            nodes=tuple(node_specs),
            remote_spill=True,
            contended=True,
            # A tenth of the default 10 GbE: each 4 KiB page occupies the
            # link long enough for concurrent spill bursts to queue.
            interconnect_bandwidth_bytes_s=1.25e8,
            coordinator="spill-feedback:percent=15",
        ),
    )


@register_scenario(
    "failover",
    parameters=("nodes", "ram_mb", "fail_at"),
    param_docs={
        "nodes": "total nodes (node2 is the spill vault)",
        "ram_mb": "RAM per VM",
        "fail_at": "instant the vault node dies (permanently)",
    },
)
def failover_scenario(
    *, scale: float = 1.0, nodes: int = 3, ram_mb: int = 512,
    fail_at: float = 30.0,
) -> ScenarioSpec:
    """A spill vault node dies mid-run; its VMs fail over to survivors."""
    _check_scale(scale)
    nodes = int(nodes)
    fail_at = float(fail_at)
    if nodes < 3:
        raise ScenarioError(f"failover needs nodes >= 3, got {nodes}")
    if ram_mb <= 0:
        raise ScenarioError(f"failover needs ram_mb > 0, got {ram_mb}")
    if fail_at <= 0:
        raise ScenarioError(f"failover needs fail_at > 0, got {fail_at}")
    vm_ram = _scaled(ram_mb, scale)
    increment_mb = _scaled(128, scale)
    hot_params = {
        "start_mb": increment_mb,
        "increment_mb": increment_mb,
        "max_mb": max(increment_mb, _scaled(2 * ram_mb, scale)),
    }
    light_params = {
        "graph_mb": _scaled(ram_mb * 0.6, scale),
        "rank_vectors_mb": _scaled(ram_mb * 0.15, scale),
        # Enough iterations that the vault VM is still mid-run when the
        # node dies, so failover moves a busy guest, not an idle one.
        "iterations": 16,
    }
    small_tmem = _scaled(96, scale)
    vault_tmem = _scaled(1024, scale)

    vms = []
    node_specs = []
    for k in range(1, nodes + 1):
        name = f"n{k}.VM1"
        is_vault = k == 2
        vms.append(
            VMSpec(
                name=name,
                ram_mb=vm_ram,
                vcpus=1,
                swap_mb=_scaled(4 * ram_mb, scale),
                jobs=(
                    WorkloadSpec(
                        kind="graph-analytics" if is_vault else "usemem",
                        params=light_params if is_vault else hot_params,
                        start_at=0.0,
                        label="graph-analytics" if is_vault else "usemem",
                    ),
                ),
            )
        )
        node_specs.append(
            NodeSpec(
                name=f"node{k}",
                vm_names=(name,),
                tmem_mb=vault_tmem if is_vault else small_tmem,
                # Survivors keep enough fallow DRAM to adopt the vault
                # node's VM (its RAM) on failover.
                host_memory_mb=(
                    vm_ram + vault_tmem + 256
                    if is_vault
                    else 2 * vm_ram + small_tmem + vault_tmem + 256
                ),
            )
        )
    return ScenarioSpec(
        name=f"failover:nodes={nodes},ram_mb={ram_mb},fail_at={fail_at:g}",
        description=(
            f"{nodes - 1} overflowing nodes spill into node2's "
            f"{vault_tmem} MB vault pool; node2 fails at t={fail_at:g}s — "
            "spilled frontswap pages refault from disk, node2's VM "
            "migrates to a survivor over the contended interconnect"
        ),
        vms=tuple(vms),
        tmem_mb=vault_tmem + small_tmem * (nodes - 1),
        topology=ClusterTopology(
            nodes=tuple(node_specs),
            remote_spill=True,
            contended=True,
            interconnect_bandwidth_bytes_s=1.25e8,
            coordinator="spill-feedback:percent=15",
            failures=(NodeFailure(node="node2", at_s=fail_at),),
        ),
    )


def _vault_cluster(nodes: int, ram_mb: int, scale: float):
    """The shared VM/node layout of the transient-fault families.

    Same shape as ``failover``: ``nodes - 1`` overflowing usemem nodes
    spill into node2's large vault pool, and node2 runs a long
    graph-analytics VM so the fault hits a busy guest.  Nodes alternate
    between two zones so the degraded spill path's rack-aware peer
    ranking has something to prefer.
    """
    vm_ram = _scaled(ram_mb, scale)
    increment_mb = _scaled(128, scale)
    hot_params = {
        "start_mb": increment_mb,
        "increment_mb": increment_mb,
        "max_mb": max(increment_mb, _scaled(2 * ram_mb, scale)),
    }
    light_params = {
        "graph_mb": _scaled(ram_mb * 0.6, scale),
        "rank_vectors_mb": _scaled(ram_mb * 0.15, scale),
        "iterations": 16,
    }
    small_tmem = _scaled(96, scale)
    vault_tmem = _scaled(1024, scale)

    vms = []
    node_specs = []
    for k in range(1, nodes + 1):
        name = f"n{k}.VM1"
        is_vault = k == 2
        vms.append(
            VMSpec(
                name=name,
                ram_mb=vm_ram,
                vcpus=1,
                swap_mb=_scaled(4 * ram_mb, scale),
                jobs=(
                    WorkloadSpec(
                        kind="graph-analytics" if is_vault else "usemem",
                        params=light_params if is_vault else hot_params,
                        start_at=0.0,
                        label="graph-analytics" if is_vault else "usemem",
                    ),
                ),
            )
        )
        node_specs.append(
            NodeSpec(
                name=f"node{k}",
                vm_names=(name,),
                tmem_mb=vault_tmem if is_vault else small_tmem,
                host_memory_mb=(
                    vm_ram + vault_tmem + 256
                    if is_vault
                    else 2 * vm_ram + small_tmem + vault_tmem + 256
                ),
                zone=f"z{1 + (k % 2)}",
            )
        )
    return tuple(vms), tuple(node_specs), small_tmem, vault_tmem


@register_scenario(
    "faulty",
    parameters=("nodes", "ram_mb", "fail_at", "down_s"),
    param_docs={
        "nodes": "total nodes (node2 is the spill vault)",
        "ram_mb": "RAM per VM",
        "fail_at": "instant the vault node dies",
        "down_s": "outage duration before the vault rejoins",
    },
)
def faulty_scenario(
    *, scale: float = 1.0, nodes: int = 3, ram_mb: int = 512,
    fail_at: float = 10.0, down_s: float = 15.0,
) -> ScenarioSpec:
    """The spill vault dies transiently and rejoins with VM failback."""
    from ..cluster.faults import FaultPlan

    _check_scale(scale)
    nodes = int(nodes)
    fail_at = float(fail_at)
    down_s = float(down_s)
    if nodes < 3:
        raise ScenarioError(f"faulty needs nodes >= 3, got {nodes}")
    if ram_mb <= 0:
        raise ScenarioError(f"faulty needs ram_mb > 0, got {ram_mb}")
    if fail_at <= 0:
        raise ScenarioError(f"faulty needs fail_at > 0, got {fail_at}")
    if down_s <= 0:
        raise ScenarioError(f"faulty needs down_s > 0, got {down_s}")
    vms, node_specs, small_tmem, vault_tmem = _vault_cluster(
        nodes, ram_mb, scale
    )
    plan = FaultPlan.from_specs(
        faults=(f"node2@{fail_at:g}-{fail_at + down_s:g}:failback=1",),
        degradations=(),
    )
    return ScenarioSpec(
        name=f"faulty:nodes={nodes},ram_mb={ram_mb},fail_at={fail_at:g},"
             f"down_s={down_s:g}",
        description=(
            f"{nodes - 1} overflowing nodes spill into node2's "
            f"{vault_tmem} MB vault pool; node2 dies at t={fail_at:g}s and "
            f"rejoins {down_s:g}s later with empty pools — its VM fails "
            "over and then fails back to the recovered node"
        ),
        vms=vms,
        tmem_mb=vault_tmem + small_tmem * (nodes - 1),
        topology=ClusterTopology(
            nodes=node_specs,
            remote_spill=True,
            contended=True,
            interconnect_bandwidth_bytes_s=1.25e8,
            coordinator="spill-feedback:percent=15",
            fault_plan=plan,
        ),
    )


@register_scenario(
    "flaky",
    parameters=("nodes", "ram_mb", "fail_at", "down_s"),
    param_docs={
        "nodes": "total nodes (node2 is the spill vault)",
        "ram_mb": "RAM per VM",
        "fail_at": "instant the vault node dies",
        "down_s": "outage duration before the vault rejoins",
    },
)
def flaky_scenario(
    *, scale: float = 1.0, nodes: int = 3, ram_mb: int = 512,
    fail_at: float = 10.0, down_s: float = 15.0,
) -> ScenarioSpec:
    """Transient vault failure plus lossy, flapping interconnect links."""
    from ..cluster.faults import FaultPlan

    _check_scale(scale)
    nodes = int(nodes)
    fail_at = float(fail_at)
    down_s = float(down_s)
    if nodes < 3:
        raise ScenarioError(f"flaky needs nodes >= 3, got {nodes}")
    if ram_mb <= 0:
        raise ScenarioError(f"flaky needs ram_mb > 0, got {ram_mb}")
    if fail_at <= 0:
        raise ScenarioError(f"flaky needs fail_at > 0, got {fail_at}")
    if down_s <= 0:
        raise ScenarioError(f"flaky needs down_s > 0, got {down_s}")
    vms, node_specs, small_tmem, vault_tmem = _vault_cluster(
        nodes, ram_mb, scale
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
    plan = FaultPlan.from_specs(
        faults=(f"node2@{fail_at:g}-{fail_at + down_s:g}:failback=1",),
        degradations=(
            f"node1->node3@{degrade_start:g}-{degrade_end:g}:"
            "bw=0.25,loss=0.05,lat=0.002",
            f"node3->node1@{part_start:g}-{part_end:g}:partition=1",
        ),
        breaker_cooldown_s=max(0.5, down_s / 3.0),
    )
    return ScenarioSpec(
        name=f"flaky:nodes={nodes},ram_mb={ram_mb},fail_at={fail_at:g},"
             f"down_s={down_s:g}",
        description=(
            f"faulty:nodes={nodes} plus link degradation: node1->node3 "
            f"runs lossy and throttled over [{degrade_start:g}, "
            f"{degrade_end:g}]s, node3->node1 partitions over "
            f"[{part_start:g}, {part_end:g}]s — the spill path retries "
            "with backoff, trips the per-peer breaker and heals"
        ),
        vms=vms,
        tmem_mb=vault_tmem + small_tmem * (nodes - 1),
        topology=ClusterTopology(
            nodes=node_specs,
            remote_spill=True,
            contended=True,
            interconnect_bandwidth_bytes_s=1.25e8,
            coordinator="spill-feedback:percent=15",
            fault_plan=plan,
        ),
    )


@register_scenario(
    "migrate",
    parameters=("nodes", "ram_mb", "at"),
    param_docs={
        "nodes": "total nodes (n1.VM1 migrates to node2)",
        "ram_mb": "RAM per VM",
        "at": "instant the live migration starts",
    },
)
def migrate_scenario(
    *, scale: float = 1.0, nodes: int = 2, ram_mb: int = 512, at: float = 20.0
) -> ScenarioSpec:
    """Planned live migration of a loaded VM onto an idle peer node."""
    _check_scale(scale)
    nodes = int(nodes)
    at = float(at)
    if nodes < 2:
        raise ScenarioError(f"migrate needs nodes >= 2, got {nodes}")
    if ram_mb <= 0:
        raise ScenarioError(f"migrate needs ram_mb > 0, got {ram_mb}")
    if at <= 0:
        raise ScenarioError(f"migrate needs at > 0, got {at}")
    vm_ram = _scaled(ram_mb, scale)
    increment_mb = _scaled(128, scale)
    hot_params = {
        "start_mb": increment_mb,
        "increment_mb": increment_mb,
        "max_mb": max(increment_mb, _scaled(2 * ram_mb, scale)),
    }
    idle_params = {
        "graph_mb": _scaled(ram_mb * 0.5, scale),
        "rank_vectors_mb": _scaled(ram_mb * 0.12, scale),
        "iterations": 4,
    }
    pool_mb = _scaled(256, scale)

    vms = [
        VMSpec(
            name="n1.VM1",
            ram_mb=vm_ram,
            vcpus=1,
            swap_mb=_scaled(4 * ram_mb, scale),
            jobs=(
                WorkloadSpec(kind="usemem", params=hot_params,
                             start_at=0.0, label="usemem"),
            ),
        )
    ]
    node_specs = [
        NodeSpec(
            name="node1",
            vm_names=("n1.VM1",),
            tmem_mb=pool_mb,
            host_memory_mb=vm_ram + pool_mb + 256,
        )
    ]
    for k in range(2, nodes + 1):
        name = f"n{k}.VM1"
        vms.append(
            VMSpec(
                name=name,
                ram_mb=vm_ram,
                vcpus=1,
                swap_mb=_scaled(2048, scale),
                jobs=(
                    WorkloadSpec(kind="graph-analytics", params=idle_params,
                                 start_at=0.0, label="graph-analytics"),
                ),
            )
        )
        node_specs.append(
            NodeSpec(
                name=f"node{k}",
                vm_names=(name,),
                tmem_mb=pool_mb,
                # Headroom for the incoming VM's RAM.
                host_memory_mb=2 * vm_ram + pool_mb + 256,
            )
        )
    return ScenarioSpec(
        name=f"migrate:nodes={nodes},ram_mb={ram_mb},at={at:g}",
        description=(
            f"n1.VM1 (usemem, {ram_mb} MB) live-migrates to node2 at "
            f"t={at:g}s: suspended, resident state copied over the "
            "contended interconnect, resumed on the peer"
        ),
        vms=tuple(vms),
        tmem_mb=pool_mb * nodes,
        topology=ClusterTopology(
            nodes=tuple(node_specs),
            remote_spill=True,
            contended=True,
            migrations=(VmMigration(vm="n1.VM1", to_node="node2", at_s=at),),
        ),
    )


@register_scenario(
    "shard",
    parameters=("nodes", "vms_per_node", "ram_mb"),
    param_docs={
        "nodes": "number of decoupled nodes",
        "vms_per_node": "graph-analytics VMs per node",
        "ram_mb": "RAM per VM (each node's pool is half its VM RAM)",
    },
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
    _check_scale(scale)
    nodes = int(nodes)
    vms_per_node = int(vms_per_node)
    if nodes < 1:
        raise ScenarioError(f"shard needs nodes >= 1, got {nodes}")
    if vms_per_node < 1:
        raise ScenarioError(
            f"shard needs vms_per_node >= 1, got {vms_per_node}"
        )
    if ram_mb <= 0:
        raise ScenarioError(f"shard needs ram_mb > 0, got {ram_mb}")
    vm_ram = _scaled(ram_mb, scale)
    workload_params = {
        # Same ~1.8x over-commit as the cluster family, so per-node
        # behaviour is comparable across the two.
        "graph_mb": _scaled(ram_mb * 1.47, scale),
        "rank_vectors_mb": _scaled(ram_mb * 0.35, scale),
        "iterations": 8,
    }
    node_tmem = _scaled(ram_mb * vms_per_node / 2, scale)
    vms = []
    node_specs = []
    for k in range(1, nodes + 1):
        names = []
        for i in range(1, vms_per_node + 1):
            name = f"n{k}.VM{i}"
            names.append(name)
            vms.append(
                VMSpec(
                    name=name,
                    ram_mb=vm_ram,
                    vcpus=1,
                    swap_mb=_scaled(4 * ram_mb, scale),
                    jobs=(
                        WorkloadSpec(kind="graph-analytics",
                                     params=workload_params,
                                     start_at=0.0, label="graph-analytics"),
                    ),
                )
            )
        node_specs.append(
            NodeSpec(
                name=f"node{k}",
                vm_names=tuple(names),
                tmem_mb=node_tmem,
                host_memory_mb=vm_ram * vms_per_node + 2 * node_tmem + 256,
            )
        )
    return ScenarioSpec(
        name=f"shard:nodes={nodes},vms_per_node={vms_per_node},ram_mb={ram_mb}",
        description=(
            f"{nodes} decoupled nodes x {vms_per_node} graph-analytics VMs "
            f"({ram_mb} MB RAM each); {node_tmem} MB tmem per node, no "
            "spill or coordination — shardable one engine per node"
        ),
        vms=tuple(vms),
        tmem_mb=node_tmem * nodes,
        topology=ClusterTopology(
            nodes=tuple(node_specs),
            remote_spill=False,
        ),
    )
