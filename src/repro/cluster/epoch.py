"""Epoch cluster engine: conservative-window parallel execution of
*coupled* topologies.

The sharded runner parallelizes decoupled multi-node scenarios
bit-identically, but every coupled topology — remote-tmem spill, the
capacity coordinator, a contended interconnect — falls back to the
exact shared-engine run in the calling process, because spill admission
and capacity decisions read *instantaneous* peer state.  The epoch
engine trades that bit-identity for parallelism under an explicit,
pinned contract:

* Simulated time advances in **conservative windows** of width
  :func:`epoch_window_s`, whose floor is the interconnect lookahead:
  every cross-node interaction pays at least one one-way latency, so a
  window of at least that width never lets an event influence a peer
  *within* the window it was generated in.  The practical width is
  ``max(latency, rebalance_interval / 2)`` — microsecond-wide windows
  would drown the run in barriers, and half a rebalance interval
  guarantees at most one coordinator tick falls inside any window.
* Inside a window each shard evolves its nodes against **snapshotted
  peer state**: per-peer spill headroom quotas and window-start link
  ``busy_until`` values handed out by the driver at the barrier.  All
  cross-node effects — spill puts, remote gets, flush invalidations —
  are recorded as explicit **messages** and exchanged at the barrier.
* The driver absorbs every shard's messages in one **canonical order**
  (sorted by ``(time, emitting node, per-node sequence)``), queues
  their payloads on its own :class:`~repro.channels.internode.LinkState`
  FIFOs (the exact engine's queue model, with no engine behind it),
  maintains the cluster-wide hosted-spill occupancy, and runs
  barrier-aligned coordinator rounds
  (:class:`~repro.core.coordinator.BarrierRebalancer`).  A round is the
  exact engine's: the same per-node records (read by
  :meth:`~repro.cluster.cluster.Cluster.node_state` in the shards, with
  the driver's hosted pages taken off ``free``), the same ``round_views``
  and ``plan_capacity``, and steps the owning shards apply with
  :meth:`~repro.cluster.cluster.Cluster.resize_pool` at the next window
  start.

Because a node's in-window evolution depends only on its own state and
the driver-provided window inputs — co-located nodes interact through
the very same message protocol as remote ones — the merged result is
**identical for every shard count and worker scheduling**, which is the
contract pinned in ``tests/data/scenario_fingerprints_epoch.json``.
Epoch results legitimately differ from the exact shared-engine run
(spill admission is quota-based instead of instantaneous, hosted pages
are tracked as counters rather than materialized in peer pools, and
hosted ephemeral pages are never pressure-dropped); the exact engine
remains the default and its exact pins are untouched.

Node failures, planned migrations, cross-node phase triggers and stop
triggers relocate VMs or inject events *across* shards mid-window; such
scenarios keep the exact shared-engine fallback in the calling process
(:func:`epoch_fallback_reason`).
"""

from __future__ import annotations

from itertools import repeat
from typing import (
    Any, Dict, Iterable, List, Optional, Sequence, Tuple, TYPE_CHECKING,
)

from ..channels.internode import LinkState
from ..config import SimulationConfig
from ..core.coordinator import (
    BarrierRebalancer,
    NodeState,
    create_coordinator,
    plan_capacity,
    round_views,
)
from ..errors import ClusterError
from ..hypervisor.remote_tmem import burst_runs
from ..scenarios.spec import PhaseTrigger, ScenarioSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..hypervisor.remote_tmem import RemoteTmemBackend

__all__ = [
    "EpochContext",
    "EpochDriver",
    "epoch_window_s",
    "epoch_fallback_reason",
    "resolve_cluster_engine",
]

#: Valid ``--cluster-engine`` values.
CLUSTER_ENGINES = ("exact", "epoch")


def resolve_cluster_engine(value: Optional[str]) -> str:
    """Normalize a ``--cluster-engine`` value (``None`` -> ``"exact"``)."""
    if value is None:
        return "exact"
    if value not in CLUSTER_ENGINES:
        raise ClusterError(
            f"cluster engine must be one of {', '.join(CLUSTER_ENGINES)}; "
            f"got {value!r}"
        )
    return value


def epoch_window_s(topology) -> float:
    """Width of one conservative window for *topology*.

    The correctness floor is the interconnect lookahead (one one-way
    latency); the practical width is half the coordinator's rebalance
    interval, so at most one rebalance tick ever falls inside a window
    and no tick is skipped by the barrier-aligned schedule.
    """
    window = max(
        float(topology.interconnect_latency_s),
        float(topology.rebalance_interval_s) / 2.0,
    )
    if window <= 0.0:
        window = 1.0
    return window


def cross_node_trigger(spec: ScenarioSpec) -> Optional[PhaseTrigger]:
    """The first phase trigger that starts a VM on another node than
    the VM it watches, or ``None``."""
    node_of = {
        vm_name: node.name
        for node in spec.topology.nodes
        for vm_name in node.vm_names
    }
    for trigger in spec.phase_triggers:
        if trigger.start_vm and (
            node_of.get(trigger.watch_vm) != node_of.get(trigger.start_vm)
        ):
            return trigger
    return None


def epoch_fallback_reason(
    spec: ScenarioSpec, *, use_tmem: bool = True
) -> Optional[str]:
    """Why a coupled scenario cannot take the parallel epoch path.

    Returns ``None`` when the epoch engine can shard the scenario one
    node per group, else a human-readable reason selecting the exact
    shared-engine fallback (which is trivially shard-invariant).
    """
    topology = spec.topology
    if topology is None or len(topology.nodes) < 2:
        return "not a multi-node topology"
    if topology.failures:
        return "node failures relocate VMs across shards"
    if topology.migrations:
        return "planned VM migrations relocate VMs across shards"
    if topology.fault_plan is not None:
        return "fault plan needs the exact cluster engine"
    trigger = cross_node_trigger(spec)
    if trigger is not None:
        return (
            f"phase trigger {trigger.watch_vm!r} -> "
            f"{trigger.start_vm!r} injects events across shards"
        )
    if spec.stop_trigger is not None:
        return "stop trigger halts every VM cluster-wide"
    return None


class EpochContext:
    """Worker-side window state for one shard's epoch run.

    One context is the spill port of every
    :class:`~repro.hypervisor.remote_tmem.RemoteTmemBackend` of the
    shard's cluster replica.  It holds the driver's window inputs —
    per-peer spill quotas and window-start link occupancy — and collects
    the shard's outgoing cross-node messages.  All of its state is keyed
    by the *owning* node, so two nodes co-located on one shard stay
    exactly as blind to each other's in-window activity as nodes on
    different shards: shard count cannot leak into the simulation.

    As a port it never reads a peer's live state:

    * **admission** is granted against the per-peer spill quota the
      driver computed at the window barrier — a conflict-free slice of
      the peer's headroom, so no cross-shard rejection or rollback can
      ever be needed;
    * **hosted pages are never materialized** in the hosting pool.  An
      index leaf is ``(peer_name, version)`` and the driver tracks
      per-node hosted occupancy as a counter, so gets resolve from the
      owner's own index;
    * every **cost** is computed against the owner's private window view
      of the link, and every effect is **emitted as a message** for the
      driver's canonical replay.

    Known divergences from the exact engine, all deterministic and
    covered by the epoch pin file: quota-based admission can refuse a
    put the exact engine would have placed (and vice versa); the
    all-peers-full accounting bump on the peers' spill clients is
    skipped (those accounts live on other shards); hosted ephemeral
    pages are never pressure-dropped.
    """

    def __init__(
        self, *, latency_s: float, page_transfer_s: float, contended: bool
    ) -> None:
        self.latency_s = float(latency_s)
        self.page_transfer_s = float(page_transfer_s)
        self.contended = bool(contended)
        #: Per-peer spill quota of the current window (same for every
        #: owner; consumption is tracked per (owner, peer) pair).
        self._quota: Dict[str, int] = {}
        self._consumed: Dict[Tuple[str, str], int] = {}
        #: Window-start ``busy_until`` per link name ("src->dst").
        self._busy0: Dict[str, float] = {}
        #: Each owner's private in-window view of link occupancy.
        self._local_busy: Dict[Tuple[str, str, str], float] = {}
        self._messages: List[Dict[str, Any]] = []
        self._seq: Dict[str, int] = {}

    @classmethod
    def for_spec(
        cls, spec: ScenarioSpec, config: SimulationConfig
    ) -> "EpochContext":
        topology = spec.topology
        assert topology is not None
        return cls(
            latency_s=topology.interconnect_latency_s,
            page_transfer_s=(
                config.units.page_bytes
                / topology.interconnect_bandwidth_bytes_s
            ),
            contended=topology.contended,
        )

    # -- window lifecycle ---------------------------------------------------
    def begin_window(
        self, quota: Dict[str, int], busy: Dict[str, float]
    ) -> None:
        self._quota = quota
        self._consumed.clear()
        self._busy0 = busy
        self._local_busy.clear()
        self._messages = []

    def drain(self) -> List[Dict[str, Any]]:
        """The window's outgoing messages (cleared on read)."""
        messages = self._messages
        self._messages = []
        return messages

    # -- the spill port -----------------------------------------------------
    def place(
        self,
        owner: "RemoteTmemBackend",
        held: Optional[Tuple[str, int]],
        spill_object: int,
        index: int,
        version: int,
        now: float,
        ephemeral: bool,
    ) -> Optional[Tuple[str, int]]:
        """Admit one spill against the window quota.

        A page already remote is replaced in place: its peer already
        owns a frame for it, so no quota is consumed and no occupancy
        changes.  A new page goes to the peer with the most quota left;
        ties keep wiring order, mirroring the exact engine's
        most-free-frames max-scan.
        """
        me = owner.node_name
        if held is not None:
            peer = held[0]
        else:
            peer = None
            best_left = 0
            for candidate in owner.peers:
                name = candidate.node_name
                left = self._quota.get(name, 0) - self._consumed.get((me, name), 0)
                if left > best_left:
                    peer = name
                    best_left = left
            if peer is None:
                return None
            self._consumed[(me, peer)] = self._consumed.get((me, peer), 0) + 1
        owner.last_extra_s = self.charge(me, me, peer, 1, now)
        self.emit(
            me, "spill", now, me, peer, 1, ephemeral=ephemeral, fresh=held is None
        )
        return (peer, version)

    def fetch(
        self,
        owner: "RemoteTmemBackend",
        leaf: Tuple[str, int],
        spill_object: int,
        index: int,
        ephemeral: bool,
    ) -> int:
        """Resolve a remote get from the owner's own index leaf."""
        me = owner.node_name
        peer, version = leaf
        now = owner.channel.now
        owner.last_extra_s = self.charge(me, peer, me, 1, now)
        # A persistent fetch releases the hosted frame; a non-exclusive
        # ephemeral one leaves the occupancy alone.
        self.emit(
            me, "fetch", now, peer, me, 1, ephemeral=ephemeral,
            fresh=not ephemeral,
        )
        return version

    def burst(
        self,
        owner: "RemoteTmemBackend",
        puts: Sequence[Tuple[int, int, int]],
        gets: List[Tuple[int, int, Tuple[str, int]]],
        puts_before: List[int],
        now: float,
    ) -> Tuple[List[Optional[Tuple[str, int]]], List[int],
               List[float], List[float]]:
        """The burst entry of :meth:`place` and :meth:`fetch`.

        The quota left per peer lives in locals; only this owner's own
        placements consume it inside a window, and a get returns none.
        A run of ``m`` puts between two gets therefore places ``min(m,
        quota left)`` pages by the max-scan of :meth:`place`, and the
        rest of the burst is refused without a per-page scan (and,
        as in :meth:`place`, without a peer-account bump).  Every
        placement and fetch still charges the owner's link view and
        emits its own message, in scalar order.
        """
        me = owner.node_name
        names = [peer.node_name for peer in owner.peers]
        quota = self._quota
        consumed = self._consumed
        left = [quota.get(name, 0) - consumed.get((me, name), 0) for name in names]
        total = sum(n for n in left if n > 0)
        at = owner.channel.now
        leaves: List[Optional[Tuple[str, int]]] = []
        versions: List[int] = []
        put_costs: List[float] = []
        get_costs: List[float] = []
        cost = None
        for start, end, k in burst_runs(len(puts), puts_before):
            while start < end and total > 0:
                # The first peer with the most quota left, as in place().
                best = left.index(max(left))
                peer = names[best]
                left[best] -= 1
                total -= 1
                consumed[(me, peer)] = consumed.get((me, peer), 0) + 1
                _spill_object, _index, version = puts[start]
                start += 1
                cost = self.charge(me, me, peer, 1, now)
                self.emit(
                    me, "spill", now, me, peer, 1, ephemeral=False, fresh=True
                )
                put_costs.append(cost)
                leaves.append((peer, version))
            if start < end:
                leaves.extend(repeat(None, end - start))
            if k is None:
                break
            peer, version = gets[k][2]
            cost = self.charge(me, peer, me, 1, at)
            self.emit(me, "fetch", at, peer, me, 1, ephemeral=False, fresh=True)
            get_costs.append(cost)
            versions.append(version)
        if cost is not None:
            owner.last_extra_s = cost
        return leaves, versions, put_costs, get_costs

    def drop(
        self,
        owner: "RemoteTmemBackend",
        spill_object: int,
        index_leaf_pairs: Iterable[Tuple[int, Tuple[str, int]]],
        ephemeral: bool,
    ) -> None:
        """One drop message per holding peer.

        Flush invalidations piggyback on control traffic: no data-path
        cost and no link occupancy, matching the exact engine.
        """
        per_peer: Dict[str, int] = {}
        for _index, (peer, _version) in index_leaf_pairs:
            per_peer[peer] = per_peer.get(peer, 0) + 1
        me = owner.node_name
        now = owner.channel.now
        for peer, pages in per_peer.items():
            self.emit(
                me, "drop", now, me, peer, pages, ephemeral=ephemeral,
                fresh=True,
            )

    @staticmethod
    def holder_name(leaf: Tuple[str, int]) -> str:
        return leaf[0]

    # -- data-path cost -----------------------------------------------------
    def charge(
        self, owner: str, src: str, dst: str, pages: int, now: float
    ) -> float:
        """Network cost of a round trip moving *pages* over src->dst.

        Uncontended: the stateless round trip, exactly like
        :meth:`InterNodeChannel.round_trip_cost_s`.  Contended: adds the
        queue wait computed against *owner*'s private link view, seeded
        from the window-start snapshot — the same math as
        :meth:`~repro.channels.internode.LinkState.occupy`, replayed
        locally.
        """
        cost = 2.0 * self.latency_s + pages * self.page_transfer_s
        if not self.contended:
            return cost
        key = (owner, src, dst)
        busy = self._local_busy.get(key)
        if busy is None:
            busy = self._busy0.get(f"{src}->{dst}", 0.0)
        start = busy if busy > now else now
        self._local_busy[key] = start + pages * self.page_transfer_s
        return (start - now) + cost

    # -- message log --------------------------------------------------------
    def emit(
        self,
        owner: str,
        kind: str,
        time: float,
        src: str,
        dst: str,
        pages: int,
        *,
        ephemeral: bool,
        fresh: bool,
    ) -> None:
        """Record one cross-node effect for the barrier exchange.

        ``fresh`` marks messages that change the hosted-page occupancy
        (a new spill materializes a hosted page on *dst*; a persistent
        fetch releases one on *src*); replace-in-place spills and
        non-exclusive ephemeral fetches move link traffic without
        changing occupancy.  ``seq`` is a per-owner counter, so the
        driver's canonical sort ``(time, node, seq)`` is independent of
        how owners are packed onto shards.
        """
        seq = self._seq.get(owner, 0)
        self._seq[owner] = seq + 1
        self._messages.append({
            "kind": kind,
            "time": time,
            "src": src,
            "dst": dst,
            "pages": pages,
            "ephemeral": ephemeral,
            "fresh": fresh,
            "node": owner,
            "seq": seq,
        })


class EpochDriver:
    """Driver-side (coordinator) state of one epoch run.

    Owns everything global: the window schedule, the authoritative link
    states, the hosted-spill occupancy counters, the barrier-aligned
    coordinator, and the termination decision.  The sharded runner feeds
    it the per-barrier shard reports and forwards its window commands.
    """

    def __init__(
        self,
        spec: ScenarioSpec,
        policy_spec: str,
        config: SimulationConfig,
        *,
        use_tmem: bool,
    ) -> None:
        topology = spec.topology
        if topology is None or len(topology.nodes) < 2:
            raise ClusterError(
                f"scenario {spec.name!r} is not a multi-node topology"
            )
        self.spec = spec
        self.policy_spec = policy_spec
        self.node_names: List[str] = list(topology.node_names())
        self.window_s = epoch_window_s(topology)
        self.deadline = min(spec.max_duration_s, config.max_simulated_time_s)
        self.contended = topology.contended
        self.page_transfer_s = (
            config.units.page_bytes / topology.interconnect_bandwidth_bytes_s
        )
        self.use_tmem = use_tmem
        self.spill_enabled = use_tmem and topology.remote_spill
        #: Foreign pages each node currently hosts (counter-tracked; the
        #: epoch engine never materializes them in the hosting pool).
        self.hosted: Dict[str, int] = {name: 0 for name in self.node_names}
        self._links: Dict[str, LinkState] = {}
        self.pages_moved = 0
        self.capacity_moves = 0
        #: Latest authoritative per-node state from the shard reports.
        self._states: Dict[str, NodeState] = {}
        self._last_pressure: Dict[str, Tuple[int, int, int]] = {}
        self._pending_capacity: List[Tuple[str, int]] = []
        self.rebalancer: Optional[BarrierRebalancer] = None
        if use_tmem and topology.coordinator:
            self.rebalancer = BarrierRebalancer(
                create_coordinator(topology.coordinator),
                topology.rebalance_interval_s,
            )
        self._k = 0
        #: Barrier time of the window last commanded.
        self._barrier = 0.0
        #: Barrier time at which every node was idle (the run's
        #: simulated duration); ``None`` while the run is live.
        self.finished_at: Optional[float] = None

    # -- barrier protocol ---------------------------------------------------
    def absorb_init(self, reports: List[Dict[str, Any]]) -> None:
        """Record the shards' post-construction node states."""
        for report in reports:
            self._states.update(report["nodes"])
        missing = [n for n in self.node_names if n not in self._states]
        if missing:  # pragma: no cover - shard bucketing bug
            raise ClusterError(f"no shard reported nodes {missing}")

    def window_command(self) -> Dict[str, Any]:
        """The broadcast command opening the next window.

        The window ends at the barrier ``min(k * window_s, deadline)``.
        One identical command goes to every shard: per-peer quotas are
        keyed by node (each owner consumes its own slice), capacity
        steps and link snapshots are filtered by ownership worker-side.
        """
        self._k += 1
        barrier = self._k * self.window_s
        self._barrier = self.deadline if barrier >= self.deadline else barrier
        quota: Dict[str, int] = {}
        if self.spill_enabled:
            share = max(1, len(self.node_names) - 1)
            for name in self.node_names:
                headroom = self._states[name].free - self.hosted[name]
                quota[name] = max(0, headroom) // share
        busy: Dict[str, float] = {}
        if self.contended:
            busy = {
                name: link.busy_until for name, link in self._links.items()
            }
        capacity = self._pending_capacity
        self._pending_capacity = []
        return {
            "until": self._barrier,
            "stop_when_idle": False,
            "quota": quota,
            "busy": busy,
            "capacity": capacity,
        }

    def absorb(self, reports: List[Dict[str, Any]]) -> None:
        """Merge one barrier's shard reports; decides termination.

        Queues the merged message log in canonical order on the
        driver's link states, updates hosted occupancy, then either
        declares the run finished (every node idle), raises the deadline
        error, or runs a coordinator round for the next window.
        """
        messages: List[Dict[str, Any]] = []
        running: List[str] = []
        for report in reports:
            messages.extend(report["messages"])
            running.extend(report["running"])
            self._states.update(report["nodes"])
        messages.sort(key=lambda m: (m["time"], m["node"], m["seq"]))
        for message in messages:
            kind = message["kind"]
            pages = message["pages"]
            if kind != "drop":
                # Spills and fetches move payload over the interconnect;
                # flush invalidations piggyback on control traffic and
                # charge nothing, exactly like the exact engine.
                self.pages_moved += pages
                if self.contended:
                    name = f"{message['src']}->{message['dst']}"
                    link = self._links.get(name)
                    if link is None:
                        link = self._links[name] = LinkState(
                            message["src"], message["dst"]
                        )
                    at = message["time"]
                    link.occupy(pages, pages * self.page_transfer_s, at, at)
            if kind == "spill" and message["fresh"]:
                self.hosted[message["dst"]] += pages
            elif kind == "fetch" and message["fresh"]:
                self.hosted[message["src"]] -= pages
            elif kind == "drop":
                self.hosted[message["dst"]] -= pages

        if not running:
            self.finished_at = self._barrier
            return
        if self._barrier >= self.deadline:
            from ..scenarios.runner import deadline_error

            raise deadline_error(
                self.spec, self.policy_spec, self.deadline, running
            )
        self._coordinate()

    @property
    def finished(self) -> bool:
        return self.finished_at is not None

    # -- coordinator rounds -------------------------------------------------
    def _coordinate(self) -> None:
        """The barrier's coordinator step, run as the exact engine's round.

        Feasibility is judged on the barrier state the shards just
        reported (the shards are blocked, so nothing can move under us),
        with each node's hosted pages taken off its free frames: the
        exact engine's pools hold them physically.  The steps are
        applied by the owning shards at the next window start.  The
        cached records advance optimistically, because the next window's
        quotas read them, and the next barrier report overwrites them.

        The views are built at every barrier, before the rebalancer
        decides whether a round is due, so the pressure baseline moves
        every window and a round sees only the last window's pressure
        (see :class:`~repro.core.coordinator.BarrierRebalancer`).
        """
        if self.rebalancer is None:
            return
        states = []
        for name in self.node_names:
            state = self._states[name]
            free = max(0, state.free - self.hosted[name])
            states.append(state._replace(free=free))
        desired = self.rebalancer.poll(
            self._barrier, round_views(states, self._last_pressure)
        )
        if not desired:
            return
        steps = plan_capacity(states, desired)
        self.capacity_moves += len(steps)
        for name, delta in steps:
            state = self._states[name]
            self._states[name] = state._replace(
                capacity=state.capacity + delta,
                free=state.free + delta,
                unassigned=state.unassigned - delta,
            )
        self._pending_capacity = steps

    # -- result extras ------------------------------------------------------
    def describe_links(self) -> Dict[str, Dict[str, Any]]:
        return {
            state.name: state.describe()
            for state in sorted(self._links.values(), key=lambda s: s.name)
        }

    @property
    def max_queue_depth(self) -> int:
        if not self._links:
            return 0
        return max(state.max_queue_depth for state in self._links.values())
