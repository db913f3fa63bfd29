"""Deterministic fault injection for the cluster layer.

The cluster of PR 5 only knows *permanent* node death and planned
migration.  This module adds the transient-fault vocabulary a
production-scale deployment actually sees — nodes that crash and rejoin,
links that throttle, drop packets, or partition outright — as a
declarative, seeded :class:`FaultPlan` carried on
:class:`~repro.scenarios.spec.ClusterTopology`:

* :class:`NodeFault` — a transient node failure window
  ``[at_s, recover_at_s)``: the node dies exactly like a scheduled
  :class:`~repro.scenarios.spec.NodeFailure` (tmem lost, hosted spill
  pages lost, VMs fail over), then rejoins with empty tmem pools and is
  picked up again by the coordinator; with ``failback=True`` its
  original VMs migrate back on rejoin.
* :class:`LinkDegradation` — a degradation window on one directed link:
  a bandwidth throttle factor, extra one-way latency, a packet-loss
  probability (drawn from a per-link seeded RNG stream, so runs stay
  bit-reproducible), or a full partition during which the synchronous
  data path stalls until heal and bulk transfers fail fast and reschedule.
* :class:`FaultPlan` — the ordered collection of both, plus the
  graceful-degradation knobs used by the spill path (retry deadline and
  exponential backoff, per-peer circuit breaker thresholds).
* :class:`InvariantChecker` — an inline, read-only checker scheduled at
  stats-VIRQ cadence that raises a structured
  :class:`~repro.errors.InvariantViolation` the moment a conservation
  law breaks mid-run, instead of letting corruption surface as a wrong
  fingerprint hours later.

Everything is pure data plus engine-scheduled events: the same seed and
plan always produce the same fingerprint, so chaotic scenarios are
pinnable exactly like calm ones.

Spec-string grammar (used by the CLI ``--fault`` / ``--degrade`` flags
and the ``faulty:`` / ``flaky:`` scenario families)::

    NODE@T1-T2[:failback=1]
    SRC->DST@T1-T2:bw=0.1,loss=0.05,lat=0.002,partition=1

Times are plain decimal seconds.  ``bw`` is the bandwidth *factor*
(0 < bw <= 1), ``lat`` extra one-way latency in seconds, ``loss`` a
per-attempt drop probability (0 <= loss < 1), ``partition=1`` a hard
partition for the window.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from ..errors import FaultSpecError, InvariantViolation, ReproError

if TYPE_CHECKING:  # pragma: no cover - import cycle (cluster -> scenarios)
    from .cluster import Cluster

__all__ = [
    "NodeFault",
    "LinkDegradation",
    "FaultPlan",
    "InvariantChecker",
    "parse_node_fault",
    "parse_link_degradation",
]


# --------------------------------------------------------------------------
# Spec-string parsing helpers
# --------------------------------------------------------------------------
_WINDOW_RE = re.compile(r"^(?P<start>[0-9][0-9.]*)-(?P<end>[0-9][0-9.]*)$")


def _parse_window(window: str, spec: str) -> Tuple[float, float]:
    match = _WINDOW_RE.match(window)
    if match is None:
        raise FaultSpecError(
            f"bad fault spec {spec!r}: window must be T1-T2 in plain "
            f"decimal seconds, got {window!r}"
        )
    try:
        start_s = float(match.group("start"))
        end_s = float(match.group("end"))
    except ValueError:
        raise FaultSpecError(
            f"bad fault spec {spec!r}: window bounds are not numbers"
        ) from None
    return start_s, end_s


def _parse_options(opts: str, spec: str) -> List[Tuple[str, str]]:
    if not opts:
        return []
    pairs: List[Tuple[str, str]] = []
    for item in opts.split(","):
        key, sep, value = item.partition("=")
        if not sep or not key or not value:
            raise FaultSpecError(
                f"bad fault spec {spec!r}: option {item!r} is not key=value"
            )
        pairs.append((key.strip(), value.strip()))
    return pairs


def _parse_float(value: str, key: str, spec: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise FaultSpecError(
            f"bad fault spec {spec!r}: {key}={value!r} is not a number"
        ) from None


def _parse_bool(value: str, key: str, spec: str) -> bool:
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off"):
        return False
    raise FaultSpecError(
        f"bad fault spec {spec!r}: {key}={value!r} is not a boolean (use 0/1)"
    )


def parse_node_fault(spec: str) -> "NodeFault":
    """Parse ``NODE@T1-T2[:failback=1]`` into a :class:`NodeFault`."""
    text = spec.strip()
    head, _, opts = text.partition(":")
    node, sep, window = head.partition("@")
    if not sep or not node:
        raise FaultSpecError(
            f"bad fault spec {spec!r}: expected NODE@T1-T2[:failback=1]"
        )
    start_s, end_s = _parse_window(window, spec)
    failback = False
    for key, value in _parse_options(opts, spec):
        if key == "failback":
            failback = _parse_bool(value, key, spec)
        else:
            raise FaultSpecError(
                f"bad fault spec {spec!r}: unknown option {key!r} "
                f"(node faults accept failback=0/1)"
            )
    return NodeFault(
        node=node, at_s=start_s, recover_at_s=end_s, failback=failback
    )


def parse_link_degradation(spec: str) -> "LinkDegradation":
    """Parse ``SRC->DST@T1-T2:bw=...,loss=...,lat=...,partition=1``."""
    text = spec.strip()
    head, _, opts = text.partition(":")
    pair, sep, window = head.partition("@")
    src, arrow, dst = pair.partition("->")
    if not sep or not arrow or not src or not dst:
        raise FaultSpecError(
            f"bad degradation spec {spec!r}: expected "
            f"SRC->DST@T1-T2[:bw=...,loss=...,lat=...,partition=1]"
        )
    start_s, end_s = _parse_window(window, spec)
    bandwidth_factor = 1.0
    extra_latency_s = 0.0
    loss_probability = 0.0
    partition = False
    for key, value in _parse_options(opts, spec):
        if key == "bw":
            bandwidth_factor = _parse_float(value, key, spec)
        elif key == "lat":
            extra_latency_s = _parse_float(value, key, spec)
        elif key == "loss":
            loss_probability = _parse_float(value, key, spec)
        elif key == "partition":
            partition = _parse_bool(value, key, spec)
        else:
            raise FaultSpecError(
                f"bad degradation spec {spec!r}: unknown option {key!r} "
                f"(use bw, lat, loss, partition)"
            )
    return LinkDegradation(
        src=src,
        dst=dst,
        start_s=start_s,
        end_s=end_s,
        bandwidth_factor=bandwidth_factor,
        extra_latency_s=extra_latency_s,
        loss_probability=loss_probability,
        partition=partition,
    )


# --------------------------------------------------------------------------
# Fault specs
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class NodeFault:
    """One transient node failure: dead during ``[at_s, recover_at_s)``.

    At ``at_s`` the node fails exactly like a permanent
    :class:`~repro.scenarios.spec.NodeFailure` (local tmem lost, hosted
    remote pages lost with it, VMs fail over to survivors).  At
    ``recover_at_s`` it rejoins with empty tmem pools: stale domain
    carcasses are destroyed, its spill client is re-registered with the
    surviving peers, the stats sampler restarts, and the coordinator
    starts rebalancing it again on its next round.  With ``failback``
    the VMs the topology originally placed on it migrate back on rejoin
    (when they still exist and the node has room); otherwise they stay
    where failover put them.
    """

    node: str
    at_s: float
    recover_at_s: float
    failback: bool = False

    def __post_init__(self) -> None:
        if not self.node:
            raise FaultSpecError("fault node name must not be empty")
        if self.at_s <= 0:
            raise FaultSpecError(
                f"fault on {self.node!r}: at_s must be > 0, got {self.at_s}"
            )
        if self.recover_at_s < self.at_s:
            raise FaultSpecError(
                f"fault on {self.node!r}: recover_at_s "
                f"{self.recover_at_s} precedes at_s {self.at_s}"
            )

    @property
    def width_s(self) -> float:
        return self.recover_at_s - self.at_s

    def describe(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "node": self.node,
            "at_s": self.at_s,
            "recover_at_s": self.recover_at_s,
        }
        if self.failback:
            out["failback"] = True
        return out


@dataclass(frozen=True)
class LinkDegradation:
    """One degradation window on the directed link ``src -> dst``.

    Active during ``[start_s, end_s)``.  ``bandwidth_factor`` scales the
    link's payload bandwidth down (0.1 = 10% of nominal),
    ``extra_latency_s`` is added to each one-way traversal,
    ``loss_probability`` makes each synchronous data-path attempt fail
    (and pay a timed-out round trip before retransmitting) with that
    probability, and ``partition`` cuts the link entirely: synchronous
    transfers stall until the window heals, bulk transfers fail fast and
    reschedule at heal time.
    """

    src: str
    dst: str
    start_s: float
    end_s: float
    bandwidth_factor: float = 1.0
    extra_latency_s: float = 0.0
    loss_probability: float = 0.0
    partition: bool = False

    def __post_init__(self) -> None:
        if not self.src or not self.dst:
            raise FaultSpecError("degradation endpoints must not be empty")
        if self.src == self.dst:
            raise FaultSpecError(
                f"degradation link endpoints must differ, got {self.src!r}"
            )
        if self.start_s < 0:
            raise FaultSpecError(
                f"degradation {self.name}: start_s must be >= 0, "
                f"got {self.start_s}"
            )
        if self.end_s < self.start_s:
            raise FaultSpecError(
                f"degradation {self.name}: end_s {self.end_s} precedes "
                f"start_s {self.start_s}"
            )
        if not 0.0 < self.bandwidth_factor <= 1.0:
            raise FaultSpecError(
                f"degradation {self.name}: bandwidth_factor must be in "
                f"(0, 1], got {self.bandwidth_factor}"
            )
        if not (math.isfinite(self.extra_latency_s) and self.extra_latency_s >= 0):
            raise FaultSpecError(
                f"degradation {self.name}: extra_latency_s must be finite "
                f"and >= 0, got {self.extra_latency_s}"
            )
        if not 0.0 <= self.loss_probability < 1.0:
            raise FaultSpecError(
                f"degradation {self.name}: loss_probability must be in "
                f"[0, 1), got {self.loss_probability}"
            )

    @property
    def name(self) -> str:
        return f"{self.src}->{self.dst}"

    @property
    def width_s(self) -> float:
        return self.end_s - self.start_s

    @property
    def is_noop(self) -> bool:
        """True when the window, even if entered, changes nothing."""
        return (
            not self.partition
            and self.bandwidth_factor == 1.0
            and self.extra_latency_s == 0.0
            and self.loss_probability == 0.0
        )

    def active_at(self, now: float) -> bool:
        return self.start_s <= now < self.end_s

    def describe(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "link": self.name,
            "start_s": self.start_s,
            "end_s": self.end_s,
        }
        if self.bandwidth_factor != 1.0:
            out["bandwidth_factor"] = self.bandwidth_factor
        if self.extra_latency_s:
            out["extra_latency_s"] = self.extra_latency_s
        if self.loss_probability:
            out["loss_probability"] = self.loss_probability
        if self.partition:
            out["partition"] = True
        return out


def _check_disjoint(
    windows: Sequence[Tuple[float, float]], what: str
) -> None:
    ordered = sorted(windows)
    for (a_start, a_end), (b_start, b_end) in zip(ordered, ordered[1:]):
        if b_start < a_end:
            raise FaultSpecError(
                f"{what}: windows [{a_start}, {a_end}) and "
                f"[{b_start}, {b_end}) overlap"
            )


@dataclass(frozen=True)
class FaultPlan:
    """A declarative, seeded fault-injection plan for one cluster run.

    Attach one to :attr:`ClusterTopology.fault_plan`.  Node-fault and
    link-degradation windows are injected as engine-scheduled events;
    the retry/breaker knobs configure how the remote-spill path degrades
    gracefully while links are bad.  The plan is pure data — all
    randomness (packet loss) comes from named RNG streams of the run's
    seed, so the same (plan, seed) pair is always bit-identical.
    """

    node_faults: Tuple[NodeFault, ...] = ()
    link_faults: Tuple[LinkDegradation, ...] = ()
    #: Maximum distinct peers a degraded spill put tries before giving up.
    retry_limit: int = 3
    #: Backoff charged before the second attempt; doubles per retry.
    backoff_base_s: float = 0.002
    backoff_factor: float = 2.0
    #: Give up retrying once accumulated penalty time exceeds this.
    retry_deadline_s: float = 0.05
    #: Consecutive timeouts on one peer before its circuit breaker opens.
    breaker_threshold: int = 3
    #: How long an open breaker skips the peer before a half-open probe.
    breaker_cooldown_s: float = 5.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "node_faults", tuple(self.node_faults))
        object.__setattr__(self, "link_faults", tuple(self.link_faults))
        if self.retry_limit < 1:
            raise FaultSpecError(
                f"retry_limit must be >= 1, got {self.retry_limit}"
            )
        if self.backoff_base_s < 0:
            raise FaultSpecError(
                f"backoff_base_s must be >= 0, got {self.backoff_base_s}"
            )
        if self.backoff_factor < 1.0:
            raise FaultSpecError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.retry_deadline_s <= 0:
            raise FaultSpecError(
                f"retry_deadline_s must be > 0, got {self.retry_deadline_s}"
            )
        if self.breaker_threshold < 1:
            raise FaultSpecError(
                f"breaker_threshold must be >= 1, got {self.breaker_threshold}"
            )
        if self.breaker_cooldown_s < 0:
            raise FaultSpecError(
                f"breaker_cooldown_s must be >= 0, got {self.breaker_cooldown_s}"
            )
        by_node: Dict[str, List[Tuple[float, float]]] = {}
        for fault in self.node_faults:
            by_node.setdefault(fault.node, []).append(
                (fault.at_s, fault.recover_at_s)
            )
        for node, windows in by_node.items():
            _check_disjoint(windows, f"node {node!r} fault windows")
        by_link: Dict[Tuple[str, str], List[Tuple[float, float]]] = {}
        for deg in self.link_faults:
            by_link.setdefault((deg.src, deg.dst), []).append(
                (deg.start_s, deg.end_s)
            )
        for (src, dst), windows in by_link.items():
            _check_disjoint(windows, f"link {src}->{dst} degradation windows")

    # -- normalisation ------------------------------------------------------------
    def effective(self) -> Optional["FaultPlan"]:
        """The plan with no-op windows dropped; ``None`` if nothing remains.

        Zero-width windows (and degradation windows whose parameters are
        all nominal) cannot change a run, so the cluster stores only the
        effective plan: a plan of nothing but no-ops follows the exact
        no-plan code path and stays byte-identical to it.
        """
        node_faults = tuple(
            fault for fault in self.node_faults if fault.width_s > 0
        )
        link_faults = tuple(
            deg
            for deg in self.link_faults
            if deg.width_s > 0 and not deg.is_noop
        )
        if not node_faults and not link_faults:
            return None
        if (
            node_faults == self.node_faults
            and link_faults == self.link_faults
        ):
            return self
        return replace(
            self, node_faults=node_faults, link_faults=link_faults
        )

    # -- validation against a topology --------------------------------------------
    def validate_topology(self, topology: Any) -> None:
        """Cross-check the plan against the topology carrying it.

        Raises :class:`FaultSpecError` (a :class:`ClusterError`) when a
        fault names an unknown node, a transient failure would race the
        same node's *permanent* scheduled failure, or a node fault is
        injected into a single-node cluster (no survivor could adopt its
        VMs).
        """
        names = set(topology.node_names())
        permanent = {f.node: f.at_s for f in topology.failures}
        for fault in self.node_faults:
            if fault.node not in names:
                raise FaultSpecError(
                    f"fault plan names unknown node {fault.node!r}"
                )
            if len(names) == 1 and fault.width_s > 0:
                raise FaultSpecError(
                    f"cannot inject a node fault on {fault.node!r}: "
                    f"a single-node cluster has no survivor to adopt its VMs"
                )
            dead_at = permanent.get(fault.node)
            if dead_at is not None and fault.recover_at_s >= dead_at:
                raise FaultSpecError(
                    f"transient fault window [{fault.at_s}, "
                    f"{fault.recover_at_s}) on node {fault.node!r} collides "
                    f"with its permanent failure at t={dead_at}"
                )
        for deg in self.link_faults:
            for endpoint in (deg.src, deg.dst):
                if endpoint not in names:
                    raise FaultSpecError(
                        f"degradation {deg.name} names unknown node "
                        f"{endpoint!r}"
                    )

    def describe(self) -> Dict[str, Any]:
        """JSON-able summary included in the result's cluster section."""
        out: Dict[str, Any] = {}
        if self.node_faults:
            out["node_faults"] = [f.describe() for f in self.node_faults]
        if self.link_faults:
            out["link_degradations"] = [
                d.describe() for d in self.link_faults
            ]
        out["retry"] = {
            "limit": self.retry_limit,
            "backoff_base_s": self.backoff_base_s,
            "backoff_factor": self.backoff_factor,
            "deadline_s": self.retry_deadline_s,
        }
        out["breaker"] = {
            "threshold": self.breaker_threshold,
            "cooldown_s": self.breaker_cooldown_s,
        }
        return out


# --------------------------------------------------------------------------
# Inline invariant checker
# --------------------------------------------------------------------------
class InvariantChecker:
    """Cluster-wide conservation checks, run inline at stats-VIRQ cadence.

    The checker is strictly read-only — it never mutates simulation
    state or consumes randomness, so enabling it cannot change a run's
    fingerprint, only catch the instant one goes wrong.  It verifies:

    * **node-local consistency** — every alive node's cross-layer
      invariants (host memory accounting, tmem store vs. accounting)
      via :meth:`Hypervisor.check_invariants`, re-raised with timing
      context;
    * **capacity conservation** — the coordinator moves tmem capacity
      between nodes but must never mint or destroy it: the cluster-wide
      total (dead nodes' frozen capacity included) equals the
      construction-time total;
    * **spill-page conservation** — every remote spill page a node hosts
      is indexed by exactly one alive owner, and no owner's index points
      at a dead holder.  Persistent spill transfers are synchronous
      (indexes update in the same event as the data), so there is no
      in-flight set to account separately.

    Every exact-engine run can arm one: a single host is a one-node
    cluster, and a decoupled shard worker sweeps its replica of the
    whole cluster.  The epoch engine cannot: its hosts never
    materialize the pages they hold for peers, so the spill laws above
    do not hold there (:meth:`Cluster.enable_invariant_checker`).
    """

    def __init__(self, cluster: "Cluster") -> None:
        self._cluster = cluster
        self._expected_capacity_pages = sum(
            node.hypervisor.host_memory.tmem_total_pages
            for node in cluster.nodes
        )
        #: How many sweeps ran (asserted by tests to prove it was live).
        self.checks_run = 0

    def __call__(self) -> None:
        self.check()

    def check(self) -> None:
        cluster = self._cluster
        now = cluster.engine.now
        self.checks_run += 1
        alive = [node for node in cluster.nodes if not node.failed]
        for node in alive:
            try:
                node.hypervisor.check_invariants()
            except ReproError as exc:
                raise InvariantViolation(
                    "node-local", now, f"node {node.name}: {exc}"
                ) from exc
        total = sum(
            node.hypervisor.host_memory.tmem_total_pages
            for node in cluster.nodes
        )
        if total != self._expected_capacity_pages:
            raise InvariantViolation(
                "capacity-conservation",
                now,
                f"cluster tmem capacity is {total} pages, expected "
                f"{self._expected_capacity_pages} — the coordinator minted "
                f"or destroyed capacity",
            )
        backends = cluster.remote_backends
        if not backends:
            return
        alive_names = [node.name for node in alive]
        alive_set = set(alive_names)
        for ephemeral, kind in ((False, "persistent"), (True, "ephemeral")):
            hosted_expected = {name: 0 for name in alive_names}
            for name in alive_names:
                owner = backends.get(name)
                if owner is None:
                    continue
                counts = owner.spill_holder_counts(ephemeral=ephemeral)
                for holder, count in sorted(counts.items()):
                    if holder not in alive_set:
                        raise InvariantViolation(
                            "owner-holder-liveness",
                            now,
                            f"node {name} indexes {count} {kind} spill "
                            f"pages on node {holder}, which is not alive — "
                            f"the pages did not survive it",
                        )
                    hosted_expected[holder] += count
            for name in alive_names:
                host = backends.get(name)
                if host is None:
                    continue
                actual = host.hosted_spill_pages(ephemeral=ephemeral)
                if actual != hosted_expected[name]:
                    raise InvariantViolation(
                        "page-conservation",
                        now,
                        f"node {name} hosts {actual} {kind} spill pages "
                        f"but alive owners index {hosted_expected[name]} — "
                        f"a hosted page outlived its owner or an index "
                        f"entry dangles",
                    )
