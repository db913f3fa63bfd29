"""N nodes on one simulation engine, with spill and capacity coordination.

:class:`Cluster` is the one assembly and lifecycle of every run: it
turns a :class:`~repro.scenarios.spec.ScenarioSpec` into live machinery
laid out by :meth:`~repro.scenarios.spec.ScenarioSpec.layout` — the
spec's :class:`~repro.scenarios.spec.ClusterTopology`, or one node
``node1`` holding every VM when the spec has none:

* one :class:`~repro.cluster.node.Node` per
  :class:`~repro.scenarios.spec.NodeSpec`, built in layout order on
  the shared engine, with a shared domain-id allocator so VM ids (and
  the trace names derived from them) are unique cluster-wide;
* one :class:`~repro.channels.internode.InterNodeChannel` modeling the
  interconnect (optionally *contended*: per-link FIFO queueing), and —
  when ``remote_spill`` is on and tmem is enabled — one
  :class:`~repro.hypervisor.remote_tmem.RemoteTmemBackend` per node so
  overflow puts spill to peers instead of hitting the swap disk;
* optionally a cluster coordinator policy
  (:mod:`repro.core.coordinator`) invoked on a recurring engine timer,
  which rebalances tmem *capacity* between the nodes' pools subject to
  physical limits (shrink only free frames, grow only into fallow DRAM).
  A round reads each alive node's record (:meth:`Cluster.node_state`),
  turns it into views and steps with the coordinator module's
  ``round_views`` and ``plan_capacity``, and applies each step with
  :meth:`Cluster.resize_pool` — the same read and resize the epoch
  engine's shard workers use;
* scheduled **node failures** and **VM migrations**
  (:class:`~repro.scenarios.spec.NodeFailure` /
  :class:`~repro.scenarios.spec.VmMigration`).  A failing node loses
  its tmem contents: its VMs' local frontswap pages and any peer pages
  it hosted are re-materialised on the owners' swap disks ("refault
  from disk"), hosted cleancache pages are silently dropped, and the
  dead node's VMs fail over to surviving nodes.  Both failover and
  planned migration suspend the VM, copy its resident guest state over
  the interconnect (paying the contended channel's queue wait), adopt
  the VM's surviving remote-spill index at the new home and resume it
  there — same domain id, same trace names, same workload queue.

A one-node cluster wires no interconnect, no spill and no coordination:
it is the paper's single Xen host.

:meth:`Cluster.start`, :meth:`Cluster.finalize` and
:meth:`Cluster.check_invariants` take the nodes a caller drives (every
node by default): a shard of a sharded run builds the whole cluster but
starts, finalizes and checks only its own nodes.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..channels.internode import InterNodeChannel
from ..config import SimulationConfig
from ..core.coordinator import (
    ClusterPolicy,
    NodeState,
    create_coordinator,
    plan_capacity,
    round_views,
)
from ..errors import ClusterError
from ..guest.vm import VirtualMachine
from ..hypervisor.remote_tmem import RemoteTmemBackend
from ..scenarios.spec import (
    ClusterTopology,
    NodeSpec,
    PhaseTrigger,
    ScenarioSpec,
    VMSpec,
)
from ..sim.engine import SimulationEngine
from ..sim.events import EventPriority
from ..sim.rng import RngFactory
from ..sim.trace import TraceRecorder
from .faults import FaultPlan, InvariantChecker, NodeFault
from .node import Node

__all__ = ["Cluster", "clusterize"]


class Cluster:
    """Drives the nodes of a scenario's layout on one shared engine."""

    def __init__(
        self,
        spec: ScenarioSpec,
        policy_spec: str,
        *,
        engine: SimulationEngine,
        config: SimulationConfig,
        trace: TraceRecorder,
        rng_factory: RngFactory,
        use_tmem: bool,
        epoch: Optional["Any"] = None,
    ) -> None:
        self.spec = spec
        self.topology: ClusterTopology = spec.layout()
        self.engine = engine
        self.config = config
        self.trace = trace
        self._use_tmem = use_tmem
        #: Epoch-engine window context (None on exact shared-engine runs).
        #: When set, it is every spill backend's port (window-quota
        #: admission) and the coordinator moves to the epoch driver's
        #: barrier rounds.
        self.epoch = epoch
        multi_node = len(self.topology.nodes) > 1

        # Shared domain ids keep "tmem_used/vm<id>" traces unique across
        # nodes; dom0 is the privileged domain, so guests count from 1.
        domid_counter = itertools.count(1)
        vms_by_name = {vm.name: vm for vm in spec.vms}

        self.nodes: Tuple[Node, ...] = tuple(
            Node(
                node_spec.name,
                engine=engine,
                config=config,
                trace=trace,
                rng_factory=rng_factory,
                scenario_name=spec.name,
                vm_specs=[vms_by_name[name] for name in node_spec.vm_names],
                tmem_mb=node_spec.tmem_mb,
                host_memory_mb=node_spec.effective_host_memory_mb(
                    sum(vms_by_name[name].ram_mb for name in node_spec.vm_names)
                ),
                policy_spec=policy_spec,
                use_tmem=use_tmem,
                domid_allocator=lambda counter=domid_counter: next(counter),
                free_trace_name=(
                    f"tmem_free/{node_spec.name}" if multi_node else "tmem_free"
                ),
            )
            for node_spec in self.topology.nodes
        )
        self._node_by_name: Dict[str, Node] = {
            node.name: node for node in self.nodes
        }

        self.channel: Optional[InterNodeChannel] = None
        self.remote_backends: Dict[str, RemoteTmemBackend] = {}
        self.coordinator: Optional[ClusterPolicy] = None
        self._capacity_moves = 0
        self._last_pressure: Dict[str, Tuple[int, int, int]] = {}
        self._rebalance_timer = None
        #: Failure/migration records for the result's cluster section.
        self.events: List[Dict[str, Any]] = []
        #: Effective fault-injection plan (no-op windows dropped): a plan
        #: of nothing but no-ops is indistinguishable from no plan, so
        #: zero-width windows stay byte-identical to fault-free runs.
        self.fault_plan: Optional[FaultPlan] = (
            self.topology.fault_plan.effective()
            if self.topology.fault_plan is not None
            else None
        )
        if self.fault_plan is not None and epoch is not None:
            # coupling_reason()/epoch_fallback_reason() route fault plans
            # to the exact engine; this guards direct construction.
            raise ClusterError(
                "fault plans require the exact cluster engine "
                "(the epoch engine never materializes hosted pages)"
            )
        #: Inline conservation checker; armed via
        #: :meth:`enable_invariant_checker` before :meth:`start`.
        self.invariant_checker: Optional[InvariantChecker] = None
        self._checker_timer = None
        self._migrations_in_flight = 0
        #: Names of VMs whose state copy is currently in flight.  A VM
        #: can have at most one live relocation: planned migrations of
        #: an in-flight VM are skipped, and a failure of the copy's
        #: destination chains a second failover at completion instead of
        #: starting a concurrent one.
        self._relocating: set = set()

        if multi_node:
            self.channel = InterNodeChannel(
                engine,
                latency_s=self.topology.interconnect_latency_s,
                bandwidth_bytes_s=self.topology.interconnect_bandwidth_bytes_s,
                page_bytes=config.units.page_bytes,
                contended=self.topology.contended,
                trace=trace,
            )
            if self.fault_plan is not None and self.fault_plan.link_faults:
                self.channel.configure_degradations(
                    self.fault_plan.link_faults, rng_factory
                )
            if use_tmem and self.topology.remote_spill:
                self._wire_remote_spill(domid_counter)
            if self.fault_plan is not None:
                for backend in self.remote_backends.values():
                    backend.configure_faults(
                        self.fault_plan, self.events.append
                    )
            if use_tmem and self.topology.coordinator and epoch is None:
                # Under the epoch engine the coordinator runs driver-side
                # at window barriers (BarrierRebalancer), not on a local
                # engine timer.
                self.coordinator = create_coordinator(self.topology.coordinator)
        self._vm_by_id: Dict[int, VirtualMachine] = {
            vm.vm_id: vm
            for node in self.nodes
            for vm in node.vms.values()
        }

    # -- wiring ---------------------------------------------------------------
    def _wire_remote_spill(self, domid_counter: "itertools.count") -> None:
        assert self.channel is not None
        # The epoch context reaches peers through window quotas and
        # messages; without one (None) the backends reach live peers.
        backends = {
            node.name: RemoteTmemBackend(
                node.name, node.hypervisor, self.channel,
                trace=self.trace, zone=node_spec.zone, port=self.epoch,
            )
            for node, node_spec in zip(self.nodes, self.topology.nodes)
        }
        for node in self.nodes:
            backend = backends[node.name]
            for vm in node.vms.values():
                backend.register_home_vm(vm.vm_id)
            peers = [
                backends[other.name] for other in self.nodes if other is not node
            ]
            # The spill client is a cluster-internal pseudo-domain; its
            # id comes from the shared allocator so it can never collide
            # with a guest id on any node.
            backend.connect(peers, spill_client_id=next(domid_counter))
        self.remote_backends = backends

    # -- lifecycle -------------------------------------------------------------
    def start(self, nodes: Optional[Sequence[Node]] = None) -> None:
        """Start *nodes* (default: every node), then arm the cluster's
        timers and schedule its failures, migrations and faults."""
        for node in self.nodes if nodes is None else nodes:
            node.start()
        if self.coordinator is not None and len(self.nodes) > 1:
            # Engine-owned periodic timer record: re-arms in place each
            # round instead of re-scheduling a closure per tick.
            self._rebalance_timer = self.engine.schedule_recurring(
                self.topology.rebalance_interval_s,
                self._rebalance,
                priority=EventPriority.TIMER,
                label="cluster-rebalance",
            )
        for failure in self.topology.failures:
            self.engine.schedule_call_at(
                failure.at_s,
                self._fail_node,
                failure.node,
                priority=EventPriority.HYPERVISOR,
                label=f"fail:{failure.node}",
            )
        for migration in self.topology.migrations:
            self.engine.schedule_call_at(
                migration.at_s,
                self._start_planned_migration,
                migration,
                priority=EventPriority.HYPERVISOR,
                label=f"migrate:{migration.vm}",
            )
        if self.fault_plan is not None:
            for fault in self.fault_plan.node_faults:
                self.engine.schedule_call_at(
                    fault.at_s,
                    self._fail_node,
                    fault.node,
                    priority=EventPriority.HYPERVISOR,
                    label=f"fault:{fault.node}",
                )
                self.engine.schedule_call_at(
                    fault.recover_at_s,
                    self._recover_node,
                    fault,
                    priority=EventPriority.HYPERVISOR,
                    label=f"recover:{fault.node}",
                )
        if self.invariant_checker is not None:
            # Same cadence as the stats VIRQ: cheap, and every sweep sees
            # the cluster at a quiescent timer boundary.
            self._checker_timer = self.engine.schedule_recurring(
                self.config.sampling.interval_s,
                self.invariant_checker,
                priority=EventPriority.TIMER,
                label="invariant-checker",
            )

    def enable_invariant_checker(self) -> None:
        """Arm the inline invariant checker (call before :meth:`start`).

        The checker is read-only and draws no randomness, so arming it
        cannot change a run's results — only raise
        :class:`~repro.errors.InvariantViolation` the moment a
        conservation law breaks.  No-op under the epoch engine, whose
        hosted pages are intentionally virtual.
        """
        if self.epoch is not None:
            return
        if self.invariant_checker is None:
            self.invariant_checker = InvariantChecker(self)

    def finalize(self, nodes: Optional[Sequence[Node]] = None) -> None:
        """Stop the cluster's timers, sweep the checker once more and
        finalize *nodes* (default: every node)."""
        if self._rebalance_timer is not None:
            self._rebalance_timer.cancel()
            self._rebalance_timer = None
        if self._checker_timer is not None:
            self._checker_timer.cancel()
            self._checker_timer = None
        if self.invariant_checker is not None:
            # One final sweep so short runs (duration < one sampling
            # interval) are still checked at least once.
            self.invariant_checker.check()
        if self.channel is not None:
            self.channel.retire(self.engine.now)
        for node in self.nodes if nodes is None else nodes:
            node.finalize()

    # -- node failure / VM migration -------------------------------------------
    def _alive_nodes(self) -> List[Node]:
        return [node for node in self.nodes if not node.failed]

    def _pages_of(self, vm: VirtualMachine, slots) -> List[int]:
        """Convert spill-index ``{object: {index: peer}}`` entries to
        guest page numbers, in deterministic (object, index) order."""
        frontswap = vm.kernel.frontswap
        if frontswap is None:
            return []
        ppo = frontswap.pages_per_object
        return [
            object_id * ppo + index
            for object_id in sorted(slots)
            for index in sorted(slots[object_id])
        ]

    def _fail_node(self, node_name: str) -> None:
        """Kill one node: lose its tmem, fail its VMs over to survivors."""
        node = self._node_by_name[node_name]
        if node.failed:
            return
        now = self.engine.now
        survivors = [n for n in self._alive_nodes() if n is not node]
        if not survivors:
            raise ClusterError(
                f"node {node_name!r} cannot fail: no surviving nodes"
            )
        node.mark_failed()
        event: Dict[str, Any] = {
            "kind": "failure",
            "node": node_name,
            "at_s": now,
            "migrated_vms": [],
            "lost_frontswap_pages": 0,
            "dropped_ephemeral_pages": 0,
        }
        self.events.append(event)

        dead_backend = self.remote_backends.get(node_name)
        if dead_backend is not None:
            # Pages the dead node hosted for surviving peers are gone:
            # frontswap pages are re-materialised on the owners' swap
            # disks (background recovery writes), cleancache pages are
            # reconstructible and vanish silently.
            for other in survivors:
                backend = self.remote_backends.get(other.name)
                if backend is None:
                    continue
                dropped_before = backend.stats.ephemeral_dropped
                lost = backend.detach_peer(dead_backend)
                event["dropped_ephemeral_pages"] += (
                    backend.stats.ephemeral_dropped - dropped_before
                )
                for vm_id, slots in sorted(lost.items()):
                    owner = self._vm_by_id[vm_id]
                    frontswap = owner.kernel.frontswap
                    ppo = frontswap.pages_per_object if frontswap else 1
                    pages = [o * ppo + i for o, i in slots]
                    recovered = owner.kernel.recover_lost_tmem_pages(
                        pages, now=now
                    )
                    event["lost_frontswap_pages"] += recovered

        # Fail the dead node's VMs over to the surviving nodes, in
        # placement order (deterministic).  A VM whose own relocation
        # *into* this node is still in flight is left alone here: its
        # completion handler sees the dead destination and chains a
        # fresh failover (starting a second concurrent copy would
        # resume the guest before its state arrived).
        for vm_name in list(node.vms):
            if vm_name in self._relocating:
                continue
            vm = node.remove_vm(vm_name)
            target = self._pick_failover_target(survivors, vm)
            event["migrated_vms"].append(vm_name)
            self._begin_relocation(vm, node, target, reason="failover")

    def _recover_node(self, fault: NodeFault) -> None:
        """Re-admit a transiently failed node with empty tmem pools.

        The machine rebooted: stale domain carcasses (evacuated VMs'
        records, which kept their RAM reservation and dead tmem pages
        frozen) are destroyed, the spill client is reset and rewired to
        the alive peers, every alive peer re-adds the node to its peer
        list, the sampler restarts, and the coordinator's next round
        sees the node again.  With ``fault.failback`` the VMs the
        topology placed here originally are live-migrated back.

        A VM whose failover copy is still in flight *towards* this node
        keeps its domain and spill index: its completion handler finds
        the destination alive again and resumes it here.
        """
        node = self._node_by_name[fault.node]
        if not node.failed:
            return
        now = self.engine.now
        hypervisor = node.hypervisor
        for vm_id in sorted(hypervisor.domains()):
            vm = self._vm_by_id.get(vm_id)
            if vm is not None and vm.name in self._relocating:
                continue
            hypervisor.destroy_domain(vm_id)
        node.recover()

        backend = self.remote_backends.get(fault.node)
        if backend is not None:
            # Mid-copy VMs already adopted by this backend keep their
            # index entries across the pool reset (their remote copies
            # on peers stay owned); everything else died with the node.
            preserved = {
                vm_id: backend.extract_vm(vm_id)
                for vm_id in sorted(backend._home_vms)
            }
            peers = [
                self.remote_backends[other.name]
                for other in self.nodes
                if other is not node
                and not other.failed
                and other.name in self.remote_backends
            ]
            backend.reset_after_failure(peers)
            # The reboot also forgot every breaker the node kept.
            backend.port.breakers.clear()
            for vm_id, (persistent, ephemeral) in preserved.items():
                backend.adopt_vm(vm_id, persistent, ephemeral)
            for other in self.nodes:
                if other is node or other.failed:
                    continue
                other_backend = self.remote_backends.get(other.name)
                if other_backend is None:
                    continue
                other_backend.set_peers([
                    self.remote_backends[third.name]
                    for third in self.nodes
                    if third is not other
                    and not third.failed
                    and third.name in self.remote_backends
                ])
                other_backend.port.breakers.pop(fault.node, None)

        event: Dict[str, Any] = {
            "kind": "recovery",
            "node": fault.node,
            "at_s": now,
            "failed_back_vms": [],
        }
        self.events.append(event)

        if fault.failback:
            home_spec = next(
                spec for spec in self.topology.nodes
                if spec.name == fault.node
            )
            for vm_name in home_spec.vm_names:
                if vm_name in self._relocating:
                    continue
                source = next(
                    (n for n in self.nodes if vm_name in n.vms), None
                )
                if source is None or source is node or source.failed:
                    continue
                vm = source.vms[vm_name]
                if (
                    node.hypervisor.host_memory.unassigned_pages
                    < vm.domain.ram_pages
                ):
                    continue
                source.remove_vm(vm_name)
                event["failed_back_vms"].append(vm_name)
                self.events.append({
                    "kind": "migration",
                    "vm": vm_name,
                    "from": source.name,
                    "to": node.name,
                    "at_s": now,
                    "failback": True,
                })
                self._begin_relocation(vm, source, node, reason="planned")

    def _pick_failover_target(
        self, survivors: List[Node], vm: VirtualMachine
    ) -> Node:
        """Surviving node with the most fallow DRAM; ties keep topology
        order.  Raises when no survivor can hold the VM's RAM."""
        best: Optional[Node] = None
        best_room = -1
        ram = vm.domain.ram_pages
        for candidate in survivors:
            room = candidate.hypervisor.host_memory.unassigned_pages
            if room >= ram and room > best_room:
                best = candidate
                best_room = room
        if best is None:
            raise ClusterError(
                f"no surviving node has {ram} fallow pages to adopt "
                f"VM {vm.name!r}"
            )
        return best

    def _start_planned_migration(self, migration) -> None:
        """Begin a live migration scheduled by the topology."""
        vm = self.merged_vms().get(migration.vm)
        if vm is None:  # pragma: no cover - spec validation prevents this
            raise ClusterError(f"unknown VM {migration.vm!r}")
        if migration.vm in self._relocating:
            # One live relocation per VM: a planned move scheduled while
            # a copy is still in flight is dropped (and recorded).
            self.events.append({
                "kind": "migration",
                "vm": migration.vm,
                "at_s": self.engine.now,
                "skipped": "relocation already in flight",
            })
            return
        source = next(
            (n for n in self.nodes if migration.vm in n.vms), None
        )
        target = self._node_by_name[migration.to_node]
        if source is None or source.failed or target.failed:
            return  # the VM already failed over, or the target died
        if source is target:
            return
        source.remove_vm(migration.vm)
        self.events.append({
            "kind": "migration",
            "vm": migration.vm,
            "from": source.name,
            "to": target.name,
            "at_s": self.engine.now,
        })
        self._begin_relocation(vm, source, target, reason="planned")

    def _begin_relocation(
        self, vm: VirtualMachine, source: Node, target: Node, *, reason: str
    ) -> None:
        """Common start of failover and planned migration.

        Suspends the VM, unhooks its remote-spill index from the source
        backend, performs source-side cleanup (planned: local frontswap
        pages are written back to the guest swap area and the domain is
        torn down cleanly; failover: the dead node's local copies are
        simply lost and recovered on arrival), then ships the resident
        guest state over the interconnect.  Completion re-homes the VM
        on the target node.
        """
        now = self.engine.now
        vm.suspend()
        self._migrations_in_flight += 1
        self._relocating.add(vm.name)

        source_backend = self.remote_backends.get(source.name)
        persistent_index: Dict = {}
        ephemeral_index: Dict = {}
        if source_backend is not None:
            persistent_index, ephemeral_index = source_backend.extract_vm(
                vm.vm_id
            )

        # Pages of this VM living in the source node's *local* pool: on
        # a planned migration they are written back to swap before the
        # move (tmem does not migrate); on failover they died with the
        # node and are recovered (to swap) on arrival.
        lost_local: List[int] = []
        frontswap = vm.kernel.frontswap
        if frontswap is not None:
            remote_pages = set(self._pages_of(vm, persistent_index))
            lost_local = sorted(
                page for page in frontswap.held_pages
                if page not in remote_pages
            )

        saved_account = None
        old_account = source.hypervisor.accounting.maybe_account(vm.vm_id)
        if old_account is not None:
            saved_account = (
                old_account.cumul_puts_total,
                old_account.cumul_puts_succ,
                old_account.cumul_puts_failed,
                old_account.cumul_gets_total,
                old_account.cumul_flushes_total,
                old_account.cumul_puts_remote,
            )

        if reason == "planned":
            # Clean source-side teardown: swap-writeback of local tmem
            # pages (charged to the source disk), then a full domain
            # destroy so the source's accounting and RAM are released.
            if lost_local:
                vm.kernel.recover_lost_tmem_pages(lost_local, now=now)
                lost_local = []
            source.hypervisor.destroy_domain(vm.vm_id)

        # Re-home immediately (the VM stays suspended until the copy
        # arrives): target RAM is reserved now, so a concurrent failover
        # or pool growth cannot race it away, and peers dropping this
        # VM's ephemeral pages mid-copy already notify the new backend.
        vm.rehome(target.hypervisor)
        target.adopt_vm(vm)
        account = target.hypervisor.accounting.maybe_account(vm.vm_id)
        if account is not None and saved_account is not None:
            # Restore the lifetime hypercall accounting on the new home
            # so per-VM results span the whole run.
            (account.cumul_puts_total, account.cumul_puts_succ,
             account.cumul_puts_failed, account.cumul_gets_total,
             account.cumul_flushes_total, account.cumul_puts_remote,
             ) = saved_account

        target_backend = self.remote_backends.get(target.name)
        repatriated: List[int] = []
        if target_backend is not None:
            pairs = target_backend.adopt_vm(
                vm.vm_id, persistent_index, ephemeral_index
            )
            if pairs and frontswap is not None:
                ppo = frontswap.pages_per_object
                repatriated = [o * ppo + i for o, i in pairs]

        # Failover: the dead node's local copies (and any remote copies
        # that now live on the VM's own new home) are re-materialised on
        # the guest's swap area, backed by shared storage.
        lost = sorted(lost_local) + sorted(repatriated)
        if lost:
            vm.kernel.recover_lost_tmem_pages(lost, now=now)

        copied_pages = max(1, vm.kernel.resident_pages)
        state = {
            "vm": vm,
            "target": target,
            "reason": reason,
            "copied_pages": copied_pages,
            "started_at": now,
        }
        assert self.channel is not None  # topologies are multi-node here
        self.channel.transfer_async(
            source.name,
            target.name,
            copied_pages,
            self._finish_relocation,
            state,
            label=f"migrate:{vm.name}",
        )

    def _finish_relocation(self, state: Dict[str, Any]) -> None:
        """The state copy arrived: record the event and resume the VM."""
        vm: VirtualMachine = state["vm"]
        target: Node = state["target"]
        now = self.engine.now
        self._migrations_in_flight -= 1
        self._relocating.discard(vm.name)

        if target.failed:
            # The destination died while the copy was in flight: the
            # state just landed on a carcass.  Chain a fresh failover
            # to a surviving node; the VM stays suspended throughout.
            target.remove_vm(vm.name)
            for event in reversed(self.events):
                if (event["kind"] == "failure"
                        and event["node"] == target.name):
                    event["migrated_vms"].append(vm.name)
                    break
            new_target = self._pick_failover_target(self._alive_nodes(), vm)
            self._begin_relocation(vm, target, new_target, reason="failover")
            return

        if state["reason"] == "planned":
            for event in reversed(self.events):
                if (event["kind"] == "migration"
                        and event.get("vm") == vm.name
                        and "skipped" not in event
                        and "completed_at_s" not in event):
                    event["completed_at_s"] = now
                    event["copied_pages"] = state["copied_pages"]
                    event["downtime_s"] = now - state["started_at"]
                    break
        else:
            for event in reversed(self.events):
                if (event["kind"] == "failure"
                        and vm.name in event.get("migrated_vms", ())):
                    event["completed_at_s"] = now
                    event["copied_pages"] = (
                        event.get("copied_pages", 0) + state["copied_pages"]
                    )
                    break

        vm.resume()

    def check_invariants(self, nodes: Optional[Sequence[Node]] = None) -> None:
        """Check the hypervisor invariants of *nodes* (default: every node)."""
        for node in self.nodes if nodes is None else nodes:
            node.check_invariants()

    # -- capacity rebalancing ---------------------------------------------------
    def node_state(self, node: Node) -> NodeState:
        """*node*'s coordinator inputs, read from its live pool and counters."""
        host = node.hypervisor.host_memory
        backend = self.remote_backends.get(node.name)
        spilled = dropped = 0
        if backend is not None:
            spilled = backend.stats.pages_spilled
            dropped = backend.stats.ephemeral_dropped + backend.stats.pages_lost
        return NodeState(
            name=node.name,
            capacity=host.tmem_total_pages,
            free=host.tmem_free_pages,
            unassigned=host.unassigned_pages,
            failed=sum(
                account.cumul_puts_failed
                for account in node.hypervisor.accounting.accounts()
            ),
            spilled=spilled,
            dropped=dropped,
            vm_count=len(node.vms),
        )

    def resize_pool(self, name: str, delta: int) -> None:
        """Apply one signed capacity step to node *name*'s pool and trace it."""
        host = self._node_by_name[name].hypervisor.host_memory
        if delta < 0:
            host.shrink_tmem_pool(-delta)
        else:
            host.grow_tmem_pool(delta)
        self.trace.record(
            f"tmem_capacity/{name}", self.engine.now, host.tmem_total_pages
        )

    def _rebalance(self) -> None:
        assert self.coordinator is not None
        views = round_views(
            [self.node_state(node) for node in self._alive_nodes()],
            self._last_pressure,
        )
        if len(views) < 2:
            return
        desired = self.coordinator.rebalance(views)
        if not desired:
            return
        if self.channel is not None and self.channel.latency_s > 0:
            # Decisions travel to the nodes over the interconnect.
            self.channel.send(
                "capacity-targets", desired, self._apply_capacities
            )
        else:
            self._apply_capacities(desired)

    def _apply_capacities(self, desired: Dict[str, int]) -> None:
        """Resize the alive nodes' pools towards *desired*.

        :func:`~repro.core.coordinator.plan_capacity` plans the steps on
        the pools as they are when the decision arrives.
        """
        steps = plan_capacity(
            [self.node_state(node) for node in self._alive_nodes()], desired
        )
        for name, delta in steps:
            self.resize_pool(name, delta)
        self._capacity_moves += len(steps)

    # -- introspection -----------------------------------------------------------
    @property
    def capacity_moves(self) -> int:
        return self._capacity_moves

    def merged_vms(self) -> Dict[str, "object"]:
        """All VMs cluster-wide, keyed by name, in node/placement order."""
        merged: Dict[str, "object"] = {}
        for node in self.nodes:
            merged.update(node.vms)
        return merged

    @property
    def realism_active(self) -> bool:
        """True when this run uses the post-PR-5 cluster features.

        The cluster section only grows its new keys (links, events,
        ephemeral/failure counters) when one of them is in play, so the
        serialized results — and therefore the pinned fingerprints — of
        plain uncontended clusters are byte-identical to before.
        """
        topology = self.topology
        if self.epoch is not None:
            # Epoch runs always carry the extra keys: whether a backend's
            # ephemeral counters moved is visible only to the shard that
            # owns it, so conditional keys would make the per-node
            # sections shard-dependent.
            return True
        if topology.contended or topology.failures or topology.migrations:
            return True
        if self.fault_plan is not None:
            return True
        return any(
            backend.stats.ephemeral_spilled
            or backend.stats.ephemeral_dropped
            or backend.stats.hosted_drops
            or backend.stats.pages_lost
            for backend in self.remote_backends.values()
        )

    def describe_nodes(self) -> Dict[str, Dict[str, object]]:
        """Per-node summary folded into ``ScenarioResult.cluster``."""
        extras = self.realism_active
        summary: Dict[str, Dict[str, object]] = {}
        for node in self.nodes:
            backend = self.remote_backends.get(node.name)
            info: Dict[str, object] = {
                "vm_names": sorted(node.vms),
                "tmem_pages_end": node.total_tmem_pages,
                "spilled_puts": backend.stats.pages_spilled if backend else 0,
                "remote_gets": backend.stats.pages_fetched if backend else 0,
                "remote_flushes": backend.stats.pages_flushed if backend else 0,
                "spill_failures": backend.stats.spill_failures if backend else 0,
            }
            if extras:
                info["failed"] = node.failed
                info["ephemeral_spilled"] = (
                    backend.stats.ephemeral_spilled if backend else 0
                )
                info["ephemeral_dropped"] = (
                    backend.stats.ephemeral_dropped if backend else 0
                )
                info["hosted_drops"] = (
                    backend.stats.hosted_drops if backend else 0
                )
                info["pages_lost"] = (
                    backend.stats.pages_lost if backend else 0
                )
            if self.fault_plan is not None:
                info["retry_penalty_s"] = (
                    backend.port.retry_penalty_s if backend else 0.0
                )
                info["breaker_trips"] = (
                    backend.port.breaker_trips if backend else 0
                )
            summary[node.name] = info
        return summary

    def describe_extras(self) -> Dict[str, object]:
        """Contention/failure additions to the result's cluster section.

        Empty — and therefore absent from the serialized result — unless
        the run used contention, failures, migrations or ephemeral
        spill, keeping historical cluster fingerprints intact.
        """
        if not self.realism_active:
            return {}
        extras: Dict[str, object] = {}
        if self.channel is not None and (
            self.channel.contended or self.channel.degraded
        ):
            extras["links"] = self.channel.describe_links()
            extras["max_queue_depth"] = self.channel.max_queue_depth
        if self.fault_plan is not None:
            extras["fault_plan"] = self.fault_plan.describe()
        if self.events:
            extras["events"] = [dict(event) for event in self.events]
        return extras


def clusterize(
    spec: ScenarioSpec,
    nodes: int,
    *,
    coordinator: Optional[str] = None,
    **topology_kwargs,
) -> ScenarioSpec:
    """Replicate a single-host scenario onto an N-node cluster topology.

    Every node receives a full copy of the scenario's VMs (names are
    prefixed ``n<k>.``) and its own tmem pool of the original size;
    phase triggers are replicated per node so each replica's internal
    choreography is preserved, while a stop trigger keeps its original
    cluster-wide meaning (watching the first node's replica).

    Interconnect and rebalancing parameters (``remote_spill``,
    ``interconnect_latency_s``, ``interconnect_bandwidth_bytes_s``,
    ``rebalance_interval_s``) pass through to
    :class:`~repro.scenarios.spec.ClusterTopology`, which owns their
    defaults.
    """
    if nodes < 1:
        raise ClusterError(f"clusterize needs nodes >= 1, got {nodes}")
    if spec.topology is not None:
        raise ClusterError(
            f"scenario {spec.name!r} already has a cluster topology"
        )

    def prefixed(k: int, vm_name: str) -> str:
        return f"n{k}.{vm_name}"

    all_vms: List[VMSpec] = []
    node_specs: List[NodeSpec] = []
    triggers: List[PhaseTrigger] = []
    for k in range(1, nodes + 1):
        replica = [
            replace(vm, name=prefixed(k, vm.name)) for vm in spec.vms
        ]
        all_vms.extend(replica)
        node_specs.append(
            NodeSpec(
                name=f"node{k}",
                vm_names=tuple(vm.name for vm in replica),
                tmem_mb=spec.tmem_mb,
                host_memory_mb=spec.host_memory_mb,
            )
        )
        triggers.extend(
            replace(
                trigger,
                watch_vm=prefixed(k, trigger.watch_vm),
                start_vm=prefixed(k, trigger.start_vm),
            )
            for trigger in spec.phase_triggers
            if trigger.start_vm
        )
    stop_trigger = spec.stop_trigger
    if stop_trigger is not None:
        stop_trigger = replace(
            stop_trigger, watch_vm=prefixed(1, stop_trigger.watch_vm)
        )

    return replace(
        spec,
        name=f"{spec.name}@{nodes}nodes",
        description=(
            f"{nodes}-node cluster, each node running a replica of: "
            f"{spec.description}"
        ),
        vms=tuple(all_vms),
        phase_triggers=tuple(triggers),
        stop_trigger=stop_trigger,
        topology=ClusterTopology(
            nodes=tuple(node_specs),
            coordinator=coordinator,
            **topology_kwargs,
        ),
    )
