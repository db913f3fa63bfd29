"""Cluster-level tmem capacity coordination.

The per-node policies (greedy, static-alloc, smart-alloc, ...) divide one
node's tmem pool among that node's VMs.  A cluster adds a second layer of
the same question one level up: how much tmem capacity should each *node*
enable?  A node whose VMs overflow constantly (failed puts, remote
spills) deserves a larger pool; a node whose pool sits idle can return
fallow frames.

Coordinator policies consume one :class:`NodeTmemView` per node per
rebalancing round and produce a new capacity vector (node name -> tmem
pages), or ``None`` for "leave everything alone".  They deliberately
reuse the same machinery as the per-VM policies:

* the rounding-exact helpers of :mod:`repro.core.targets`
  (``equal_share`` / ``proportional_scale``), which guarantee the new
  capacities sum to the cluster total, and
* the class registry of :mod:`repro.core.policy`
  (:class:`~repro.params.SpecRegistry`), so coordinators are selected
  and checked exactly like policies (``"pressure-prop:percent=25"``).

One coordinator round is the same three steps on both cluster engines,
each defined once here over plain per-node :class:`NodeState` records:

* :func:`round_views` turns the records' cumulative pressure counters
  into the round's views (changes since a baseline, never negative);
* the coordinator turns the views into a desired capacity vector;
* :func:`plan_capacity` turns that vector into the signed pool steps
  that physical limits allow — a node can only shrink by its *free* tmem
  frames and only grow into its own fallow DRAM, and growth is funded
  exactly by shrinking — so coordinators may express intent without
  tracking per-node feasibility.

The exact engine reads the records live and plans and applies the steps
when its decision reaches the nodes
(:class:`~repro.cluster.cluster.Cluster`); the epoch driver reads the
records the shards report at each barrier and the owning shards apply
the steps at the next window start (:mod:`repro.cluster.epoch`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..errors import PolicyError, UnknownPolicyError
from ..params import SpecRegistry
from .stats import TargetVector
from .targets import equal_share, proportional_scale

__all__ = [
    "NodeState",
    "NodeTmemView",
    "plan_capacity",
    "round_views",
    "ClusterPolicy",
    "BarrierRebalancer",
    "SpillFeedbackCoordinator",
    "COORDINATORS",
    "register_coordinator",
    "create_coordinator",
    "available_coordinators",
]


@dataclass(frozen=True)
class NodeTmemView:
    """One node's tmem state as seen by the coordinator."""

    name: str
    #: Current size of the node's tmem pool, in pages.
    capacity_pages: int
    used_pages: int
    free_pages: int
    #: Puts the node's pool refused since the previous round.
    failed_puts: int
    #: Overflow puts the node spilled to peers since the previous round.
    spilled_puts: int
    vm_count: int
    #: Remote pages of this node's VMs that peers dropped (ephemeral
    #: evictions) or lost (peer failure) since the previous round — a
    #: signal that the node's working set does not fit the cluster's
    #: spare capacity and its *local* pool should grow.
    dropped_pages: int = 0

    @property
    def pressure(self) -> int:
        """Demand the node could not serve locally this round."""
        return self.failed_puts + self.spilled_puts


class NodeState(NamedTuple):
    """One node's coordinator inputs at a round or barrier, in pages.

    The exact engine reads it live
    (:meth:`~repro.cluster.cluster.Cluster.node_state`); the shard
    workers report the same record to the epoch driver at every barrier.
    """

    name: str
    #: Size of the node's tmem pool.
    capacity: int
    #: Free frames of the pool: the most it can shed.
    free: int
    #: Fallow DRAM: the most the pool can grow by.
    unassigned: int
    #: Cumulative failed puts, remote spills and dropped or lost remote
    #: pages; :func:`round_views` turns them into per-round counts.
    failed: int
    spilled: int
    dropped: int
    vm_count: int


def round_views(
    states: Sequence[NodeState], baseline: Dict[str, Tuple[int, int, int]]
) -> List[NodeTmemView]:
    """The round's views of *states*, one per record, in record order.

    Each count is the counter's change since *baseline* (node name ->
    ``(failed, spilled, dropped)``, zero for a node it lacks), and the
    baseline moves to the new counters.  A cumulative sum can shrink (a
    rejoining node destroys its stale domains); a round's counts never
    go negative.
    """
    views = []
    for state in states:
        failed, spilled, dropped = baseline.get(state.name, (0, 0, 0))
        baseline[state.name] = (state.failed, state.spilled, state.dropped)
        views.append(
            NodeTmemView(
                name=state.name,
                capacity_pages=state.capacity,
                used_pages=state.capacity - state.free,
                free_pages=state.free,
                failed_puts=max(0, state.failed - failed),
                spilled_puts=max(0, state.spilled - spilled),
                vm_count=state.vm_count,
                dropped_pages=max(0, state.dropped - dropped),
            )
        )
    return views


def plan_capacity(
    states: Sequence[NodeState], desired: Dict[str, int]
) -> List[Tuple[str, int]]:
    """Signed pool steps moving the nodes of *states* towards *desired*.

    The move is transactional on the cluster total: a pool sheds at most
    its free frames and grows at most into its fallow DRAM, and the
    growing nodes receive exactly what the shrinking nodes shed, so a
    plan never mints or strands enabled tmem.  Every shrink comes before
    every grow, each in record order; one step is one capacity move.
    """
    shrinks: List[Tuple[str, int]] = []
    grows: List[Tuple[str, int]] = []
    for state in states:
        target = desired.get(state.name)
        if target is None:
            continue
        if target < state.capacity:
            feasible = min(state.capacity - target, state.free)
            if feasible > 0:
                shrinks.append((state.name, feasible))
        elif target > state.capacity:
            feasible = min(target - state.capacity, state.unassigned)
            if feasible > 0:
                grows.append((state.name, feasible))
    budget = min(
        sum(amount for _, amount in shrinks),
        sum(amount for _, amount in grows),
    )
    steps: List[Tuple[str, int]] = []
    for moves, sign in ((shrinks, -1), (grows, 1)):
        remaining = budget
        for name, amount in moves:
            if remaining <= 0:
                break
            step = min(amount, remaining)
            remaining -= step
            steps.append((name, sign * step))
    return steps


class ClusterPolicy(ABC):
    """Base class for cluster-level capacity coordinators."""

    #: Registry name, set by :func:`register_coordinator`.
    name: str = "abstract"

    @abstractmethod
    def rebalance(
        self, views: Sequence[NodeTmemView]
    ) -> Optional[Dict[str, int]]:
        """Return the desired capacity per node, or ``None`` for no change.

        The returned capacities must sum to the cluster's current total
        (``sum(view.capacity_pages)``); the helpers from
        :mod:`repro.core.targets` guarantee that by construction.
        """


def _views_as_vector(views: Sequence[NodeTmemView]) -> Tuple[Dict[int, str], int]:
    """Index nodes for the TargetVector helpers; returns (index->name, total)."""
    names = {index: view.name for index, view in enumerate(views)}
    total = sum(view.capacity_pages for view in views)
    return names, total


class EqualShareCoordinator(ClusterPolicy):
    """Split the cluster's total tmem capacity equally across nodes.

    The cluster analogue of the paper's static-alloc: one deterministic
    split.  The decision is compared against the *observed* capacities
    (not against what was last emitted), because an application can be
    partial — a donor node may have had no free frames to shed in some
    round — and must then be retried until the pools actually equalize.
    """

    def rebalance(
        self, views: Sequence[NodeTmemView]
    ) -> Optional[Dict[str, int]]:
        names, total = _views_as_vector(views)
        shares = equal_share(list(names), total)
        desired = {names[index]: value for index, value in shares.items()}
        if all(desired[view.name] == view.capacity_pages for view in views):
            return None
        return desired


class PressureProportionalCoordinator(ClusterPolicy):
    """Move capacity towards the nodes that overflowed last round.

    Each round the coordinator computes a smoothed pressure score per
    node (an exponential moving average of failed + spilled puts, plus
    one page of prior so idle nodes keep a foothold) and derives the
    capacity split proportional to those scores with the same
    largest-remainder rounding the per-VM targets use.  To avoid
    thrashing, at most ``percent`` % of the cluster total may move per
    round, and every node keeps at least ``floor`` (a fraction of its
    equal share).
    """

    def __init__(
        self,
        percent: float = 10.0,
        *,
        smoothing: float = 0.5,
        floor: float = 0.25,
    ) -> None:
        self.percent = float(percent)
        self.smoothing = float(smoothing)
        self.floor = float(floor)
        self._scores: Dict[str, float] = {}

    def _pressure_of(self, view: NodeTmemView) -> float:
        """Raw per-round pressure sample; subclasses reweight this."""
        return float(view.pressure)

    def rebalance(
        self, views: Sequence[NodeTmemView]
    ) -> Optional[Dict[str, int]]:
        names, total = _views_as_vector(views)
        if total == 0 or len(views) < 2:
            return None

        alpha = self.smoothing
        for view in views:
            previous = self._scores.get(view.name, 0.0)
            self._scores[view.name] = (
                (1 - alpha) * previous + alpha * self._pressure_of(view)
            )

        # Integer pressure weights with a +1 prior; proportional_scale
        # then rounds them to an exact partition of the total.
        weights = TargetVector(
            {
                index: int(round(self._scores[view.name] * 1024)) + 1
                for index, view in enumerate(views)
            }
        )
        floor_pages = int(self.floor * (total // len(views)))
        movable = total - floor_pages * len(views)
        if movable <= 0:
            return None
        scaled = proportional_scale(weights, movable)
        desired = {
            names[index]: floor_pages + value
            for index, value in scaled.items()
        }

        # Rate-limit: cap each node's delta at percent% of the total.
        max_move = max(1, int(total * self.percent / 100.0))
        capped: Dict[str, int] = {}
        for view in views:
            want = desired[view.name]
            delta = want - view.capacity_pages
            if delta > max_move:
                delta = max_move
            elif delta < -max_move:
                delta = -max_move
            capped[view.name] = view.capacity_pages + delta
        # Capping can unbalance the sum; shave/pad deterministically so
        # the vector stays an exact partition of the total.  Room below
        # the floor is clamped at zero (a rate-limited node may already
        # sit under its floor), and padding is spread max_move-sized so
        # the rate limit survives the repair; any residue goes to the
        # first node — exactness of the partition outranks the limit.
        ordered = sorted(views, key=lambda v: v.name)
        drift = sum(capped.values()) - total
        if drift > 0:
            for allow_below_floor in (False, True):
                for view in ordered:
                    if drift <= 0:
                        break
                    room = capped[view.name] - (
                        0 if allow_below_floor else floor_pages
                    )
                    take = min(drift, max(0, room))
                    capped[view.name] -= take
                    drift -= take
        elif drift < 0:
            deficit = -drift
            for view in ordered:
                if deficit <= 0:
                    break
                add = min(deficit, max_move)
                capped[view.name] += add
                deficit -= add
            if deficit > 0:
                capped[ordered[0].name] += deficit
        if all(capped[v.name] == v.capacity_pages for v in views):
            return None
        return capped


class SpillFeedbackCoordinator(PressureProportionalCoordinator):
    """Feed remote-spill and drop rates back into capacity targets.

    ``pressure-prop`` only sees *local* refusals.  On a cluster with
    remote-tmem spill, a node can look healthy locally while its
    overflow saturates the interconnect and parks pages on peers that
    may drop (ephemeral) or lose (failure) them.  This coordinator
    scores each node by::

        failed_puts + spill_weight * spilled_puts
                    + drop_weight  * dropped_pages

    so sustained spilling — and especially pages coming *back* as drops
    — pulls capacity towards the node that generated the traffic.  The
    per-node policies (e.g. smart-alloc) then divide the enlarged local
    pool among the node's VMs, which is the co-optimisation loop: local
    targets decide who gets the pool, the spill feedback decides how big
    the pool should be.  Rate limiting, smoothing and the per-node floor
    are inherited from ``pressure-prop``.
    """

    def __init__(
        self,
        percent: float = 10.0,
        *,
        spill_weight: float = 1.0,
        drop_weight: float = 4.0,
        smoothing: float = 0.5,
        floor: float = 0.25,
    ) -> None:
        super().__init__(percent, smoothing=smoothing, floor=floor)
        self.spill_weight = float(spill_weight)
        self.drop_weight = float(drop_weight)

    def _pressure_of(self, view: NodeTmemView) -> float:
        return (
            float(view.failed_puts)
            + self.spill_weight * view.spilled_puts
            + self.drop_weight * view.dropped_pages
        )


class BarrierRebalancer:
    """Barrier-aligned driver for a :class:`ClusterPolicy`.

    The exact cluster engine fires the coordinator from a recurring
    timer event at ``k * interval_s``.  The epoch cluster engine has no
    shared engine to hang that timer on — rebalancing rounds instead
    happen at window barriers, which are the only points where the
    driver holds a consistent global view.  This wrapper reproduces the
    timer's cadence on barrier time: a round is due once the barrier
    time reaches the next multiple of the interval, at most one round
    fires per barrier, and the schedule then advances past the barrier.
    Epoch windows are half an interval wide unless the interconnect
    latency is longer, so at most one tick falls inside each window and
    none is skipped; the ticks inside one wider window collapse into
    one round.

    :meth:`poll` takes the round's views whether or not a round is due,
    so a caller that builds them with :func:`round_views` at every
    barrier moves its pressure baseline at every barrier, not only at
    rounds.  The epoch driver does exactly that: each round sees only
    the pressure of the window just before it, not of the whole
    interval since the previous round (a known bug; see PERFORMANCE.md,
    "What epoch results are *not*").
    """

    def __init__(self, policy: ClusterPolicy, interval_s: float) -> None:
        if interval_s <= 0:
            raise PolicyError(f"interval_s must be > 0, got {interval_s}")
        self.policy = policy
        self.interval_s = float(interval_s)
        self._next_fire = float(interval_s)

    def poll(
        self, barrier_time: float, views: Sequence[NodeTmemView]
    ) -> Optional[Dict[str, int]]:
        """Run one rebalance round if the schedule says one is due."""
        if barrier_time < self._next_fire:
            return None
        while self._next_fire <= barrier_time:
            self._next_fire += self.interval_s
        return self.policy.rebalance(views)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------
#: Every cluster coordinator, by name.
COORDINATORS = SpecRegistry(
    ClusterPolicy, "coordinator", PolicyError, UnknownPolicyError
)

#: Class decorator: ``@register_coordinator(name, param_docs=..., bounds=...)``.
register_coordinator = COORDINATORS.register

#: Names of every registered coordinator, sorted.
available_coordinators = COORDINATORS.names

#: Instantiate a coordinator from ``"name:key=value,..."``.
create_coordinator = COORDINATORS.create

_PRESSURE_DOCS = {
    "percent": "most of the cluster's tmem moved per round, in %",
    "smoothing": "weight of the newest round in the pressure average",
    "floor": "share of its equal split every node keeps",
}
_PRESSURE_BOUNDS = {"percent": "(0, 100]", "smoothing": "(0, 1]", "floor": "[0, 1)"}

register_coordinator("equal-share")(EqualShareCoordinator)
register_coordinator(
    "pressure-prop", param_docs=_PRESSURE_DOCS, bounds=_PRESSURE_BOUNDS
)(PressureProportionalCoordinator)
register_coordinator(
    "spill-feedback",
    param_docs={
        **_PRESSURE_DOCS,
        "spill_weight": "pressure of one page spilled to a peer",
        "drop_weight": "pressure of one remote page a peer dropped or lost",
    },
    bounds={**_PRESSURE_BOUNDS, "spill_weight": ">= 0", "drop_weight": ">= 0"},
)(SpillFeedbackCoordinator)
