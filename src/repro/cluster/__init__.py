"""Cluster layer: multi-node topologies on one simulation engine.

The single-host core of the reproduction generalises to a cluster in two
layers:

* :class:`~repro.cluster.node.Node` — one fully-wired host: hypervisor
  with its tmem backend, the guests placed on it, the privileged-domain
  TKM, the Memory Manager running a per-node policy, and the netlink
  channel pair between them.
* :class:`~repro.cluster.cluster.Cluster` — the one assembly and
  lifecycle of every run: N nodes on one shared engine, N = 1 for a
  spec without a topology (the classic single host), optionally
  connected by a modeled interconnect
  (:class:`~repro.channels.internode.InterNodeChannel`) over which
  overflow puts spill to peer pools
  (:class:`~repro.hypervisor.remote_tmem.RemoteTmemBackend`) and a
  cluster coordinator (:mod:`repro.core.coordinator`) rebalances tmem
  capacity between nodes.
* :class:`~repro.cluster.sharded.ShardedClusterRunner` — the one
  chooser of every run's execution path (``run_scenario`` is its
  one-call form), recorded as a :class:`~repro.cluster.sharded.RunPath`:
  decoupled topologies can run with one engine shard per node group in
  worker processes, bit-identical to the shared-engine run; everything
  else runs the exact shared engine in the calling process.
* :mod:`repro.cluster.epoch` — the opt-in ``cluster_engine="epoch"``
  lookahead engine that shards *coupled* topologies too: shards advance
  in conservative time windows derived from the interconnect latency and
  exchange spill/fetch/capacity effects as canonically-ordered messages
  at window barriers.  Epoch results are deterministic and
  shard-count invariant but intentionally differ from the exact engine's
  (they carry their own fingerprint pins).

:func:`~repro.cluster.cluster.clusterize` lifts any single-host scenario
spec onto an N-node topology by replicating its VMs per node.

:mod:`repro.cluster.faults` adds deterministic fault injection on top:
a declarative, seeded :class:`~repro.cluster.faults.FaultPlan` (transient
node failures with rejoin, link-degradation windows) carried by the
topology, plus the inline
:class:`~repro.cluster.faults.InvariantChecker`.

Each name below loads its submodule on first access, and the multi-node
machinery loads only on the paths that use it: ``Cluster`` imports the
interconnect, remote tmem and the coordinators when it builds a
multi-node cluster, arming the checker imports
:mod:`~repro.cluster.faults`, and ``run_scenario`` imports
:mod:`~repro.cluster.sharded` (with :mod:`~repro.cluster.epoch` and
``multiprocessing``).  A single host loads none of them.  The sharded
runner imports, when it is built, every module its shard workers build
the run from, so a forked worker and ``run()`` import nothing.
"""

from .._lazy import lazy_getattr

#: Every re-exported name, mapped to the submodule that defines it and
#: loads on first access (PEP 562).
_LAZY = {
    "Node": "node",
    "Cluster": "cluster",
    "clusterize": "cluster",
    **dict.fromkeys(
        ("FaultPlan", "InvariantChecker", "LinkDegradation", "NodeFault",
         "parse_link_degradation", "parse_node_fault"),
        "faults",
    ),
    **dict.fromkeys(
        ("CLUSTER_ENGINES", "EpochDriver", "epoch_fallback_reason", "epoch_window_s",
         "resolve_cluster_engine"),
        "epoch",
    ),
    **dict.fromkeys(("ShardedClusterRunner", "coupling_reason", "resolve_shards"), "sharded"),
}

__getattr__ = lazy_getattr(__name__, _LAZY)

__all__ = [
    "Node",
    "Cluster",
    "clusterize",
    "FaultPlan",
    "InvariantChecker",
    "LinkDegradation",
    "NodeFault",
    "parse_link_degradation",
    "parse_node_fault",
    "CLUSTER_ENGINES",
    "EpochDriver",
    "ShardedClusterRunner",
    "coupling_reason",
    "epoch_fallback_reason",
    "epoch_window_s",
    "resolve_cluster_engine",
    "resolve_shards",
]
