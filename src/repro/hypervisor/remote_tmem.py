"""Remote-tmem spill backend (RAMster-style cross-node tmem).

On a single host an overflow put — one the local pool refuses because the
VM reached its target or the pool ran out of frames — falls back to the
guest's swap disk.  In a cluster, idle tmem on *peer* nodes is a far
better fallback: a page copy over the interconnect costs microseconds
while a disk swap costs milliseconds.  This module adds that path.

Each node owns one :class:`RemoteTmemBackend`, attached to the node's
local :class:`~repro.hypervisor.tmem_backend.TmemBackend` via its
``remote`` slot.  The local backend consults it only on failure paths:

* an overflow **put** is offered to a peer and, if one admits it,
  recorded in the node's spill index;
* a **get** that misses locally is looked up in the spill index and
  fetched from the peer that holds it;
* **flushes** chase remote copies the same way, so guest frees and VM
  teardown cannot leak frames on peers.

A planned burst reaches the backend once, not once per page:
:meth:`RemoteTmemBackend.remote_burst` takes the burst's refused puts
and remote gets in scalar order and hands them to the port's ``burst``
entry, which places what fits, refuses the rest in bulk and returns the
per-op network costs.

One backend, three ports
------------------------

The backend holds everything the three cluster execution paths share:
the spill indexes, the stats, the trace records and the hosting side.
How a peer is *reached* is its **port**'s job (the contract is on
:class:`RemoteTmemBackend`).  There are three ports:

* :class:`LivePeers` (the exact shared engine) reads the peers' live
  state.  A new page goes to the peer with the most free tmem, which
  stores it in its *spill pool*: a dedicated tmem pool owned by a
  cluster-internal "spill client" domain, so the peer's own accounting
  and invariants keep holding.  A transfer reserves the live link.
* :class:`DegradedPeers` (runs with a fault plan) is the live port
  behind sick links.  It ranks peers so degraded zones and links come
  last, retries with exponential backoff up to the plan's deadline, and
  keeps a circuit breaker per peer.
* :class:`~repro.cluster.epoch.EpochContext` (the epoch engine) admits a
  page against the per-peer window quota the driver computed at the
  barrier, charges it against the owner's private view of the link, and
  turns every cross-node effect into a message for the driver's replay.
  It never materializes hosted pages.

Persistent vs ephemeral spill
-----------------------------

The tmem interface distinguishes *persistent* pools (frontswap: a stored
page is guaranteed to come back) from *ephemeral* pools (cleancache: the
hypervisor may drop pages at will because the guest can reconstruct them
from disk).  The spill path preserves that split across the
interconnect.  Every node hosts **two** spill pools:

* the persistent pool holds peers' frontswap overflow — its pages are
  fetched back exclusively and may never vanish;
* the ephemeral pool holds peers' cleancache overflow — its pages are
  read non-exclusively and, crucially, the hosting node **drops the
  oldest foreign ephemeral page** whenever one of its *own* VMs needs a
  frame the pool cannot supply (:meth:`RemoteTmemBackend.reclaim_for_local`).
  The owner node is notified so its spill index stays exact; the owning
  guest simply sees a cleancache miss later, which is always legal.

Spilled pages keep their guest-assigned versions, so the frontswap
consistency checks (stale/vanished page detection) extend across the
interconnect unchanged.  Every remote put/get pays the
:class:`~repro.channels.internode.InterNodeChannel` round-trip plus one
page transfer on top of the ordinary hypercall cost; on a *contended*
channel the per-operation cost additionally includes the link's FIFO
queue wait at the moment the operation is issued (``last_extra_s``
always holds the cost of the most recent remote operation, which the
hypercall layer and the batched guest replay charge to the guest).

Node failure support
--------------------

:meth:`RemoteTmemBackend.detach_peer` severs a dead peer: persistent
pages it hosted are reported back per owning VM (the cluster
re-materialises them on the owners' swap disks — the "refault from disk"
recovery), ephemeral pages are silently dropped.
:meth:`~RemoteTmemBackend.extract_vm`/:meth:`~RemoteTmemBackend.adopt_vm`
move a VM's spill-index entries between backends when the VM migrates to
another node; hosting peers are rebound to the new owner so later
ephemeral drops notify the right backend.

Keys in a spill pool are namespaced by the *source VM*: the spill object
id is ``vm_id * 2**32 + object_id``, which is collision-free because
cluster domain ids are globally unique and guest object ids stay below
2**32.  They do because guest page numbers stay below 2**32: the trace
loader (:func:`~repro.workloads.trace.load_trace_steps`) rejects larger
ones, and the synthetic workloads never come near.  The persistent and
ephemeral namespaces live in separate pools, so a VM using frontswap
and cleancache simultaneously cannot collide either.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
    TYPE_CHECKING,
)

from ..channels.internode import InterNodeChannel
from ..errors import ClusterError, TmemPoolError
from .pages import make_page_key

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..sim.trace import TraceRecorder
    from .xen import Hypervisor

__all__ = ["RemoteTmemStats", "RemoteTmemBackend", "LivePeers", "DegradedPeers"]

#: Namespace stride for spill-pool object ids (see module docstring).
_SPILL_OBJECT_STRIDE = 2 ** 32

#: vm_id -> object_id -> page index -> the port's leaf for the page.
SpillIndex = Dict[int, Dict[int, Dict[int, Any]]]


def burst_runs(
    n_puts: int, puts_before: Sequence[int]
) -> Iterator[Tuple[int, int, Optional[int]]]:
    """A burst's scalar order as runs of puts between its gets.

    Yields ``(start, end, k)``: puts ``start:end`` come next, then get
    *k*.  The last run follows every get and has *k* ``None``.
    """
    start = 0
    for k, end in enumerate(puts_before):
        yield start, end, k
        start = end
    yield start, n_puts, None


class SpillPuts:
    """A burst's puts as a port sees them, built on access.

    ``puts[k]`` is the ``(spill_object, index, version)`` of the *k*-th
    put.  Most of a refused burst is refused in bulk, so a port reads
    only the puts it places.
    """

    __slots__ = ("_base", "_pages_per_object", "_pages", "_versions")

    def __init__(
        self,
        base: int,
        pages_per_object: int,
        pages: Sequence[int],
        versions: Sequence[int],
    ) -> None:
        self._base = base
        self._pages_per_object = pages_per_object
        self._pages = pages
        self._versions = versions

    def __len__(self) -> int:
        return len(self._pages)

    def __getitem__(self, k: int) -> Tuple[int, int, int]:
        object_id, index = divmod(self._pages[k], self._pages_per_object)
        return self._base + object_id, index, self._versions[k]


@dataclass
class RemoteTmemStats:
    """Spill activity of one node (its home VMs' remote traffic).

    After a VM migration the per-node split of these counters skews by
    design: the new home records the VM's later fetches/flushes while
    its earlier spills stay counted on the old home.  Cluster-wide sums
    stay exact (migration moves index entries, never mints or loses
    pages).
    """

    #: Overflow frontswap puts absorbed by a peer node.
    pages_spilled: int = 0
    #: Remote frontswap gets served back from a peer node.
    pages_fetched: int = 0
    #: Remote copies invalidated by guest flushes / VM teardown.
    pages_flushed: int = 0
    #: Overflow puts no peer could absorb (fell through to the swap disk).
    spill_failures: int = 0
    #: Overflow cleancache puts absorbed by a peer's ephemeral pool.
    ephemeral_spilled: int = 0
    #: Remote cleancache hits served from a peer's ephemeral pool.
    ephemeral_fetched: int = 0
    #: This node's VMs' ephemeral pages dropped by peers under pressure
    #: (or lost with a failed peer) — the reconstructible losses.
    ephemeral_dropped: int = 0
    #: Foreign ephemeral pages this node evicted to serve local demand.
    hosted_drops: int = 0
    #: This node's VMs' *persistent* pages lost with a failed peer (each
    #: one is re-materialised on the owner's swap disk by the cluster).
    pages_lost: int = 0
    #: Persistent pages dropped at migration time because the VM's new
    #: home was hosting them (a node cannot hold remote copies of its
    #: own VMs); also re-materialised on the owner's swap disk, but a
    #: planned, loss-free event — kept apart from ``pages_lost`` so
    #: failure-free runs report zero losses.
    pages_repatriated: int = 0


class RemoteTmemBackend:
    """Node-scoped remote tmem: spills overflow to peer nodes.

    One instance exists per cluster node.  It plays two roles:

    * for its **home VMs** it routes overflow puts to peers through its
      port and tracks where every remote copy lives (the spill indexes,
      one per pool kind);
    * for its **peers** it hosts their spilled pages in local spill
      pools, admission-limited only by this node's free tmem frames.

    *port* reaches the peers; ``None`` selects :class:`LivePeers`.  A
    port is any object with these five methods, each given this backend
    as *owner*:

    * ``place(owner, held_leaf, spill_object, index, version, now,
      ephemeral)`` picks and admits a peer for one page.  *held_leaf* is
      the page's current leaf when a peer already holds it (the put
      replaces it in place), else ``None``.  It charges the transfer
      into ``owner.last_extra_s`` and returns the page's new index leaf,
      or ``None`` when refused;
    * ``fetch(owner, leaf, spill_object, index, ephemeral)`` returns the
      page's version, or ``None`` when the holder no longer has it, and
      charges the transfer;
    * ``burst(owner, puts, gets, puts_before, now)`` serves one burst's
      persistent traffic in scalar order: *puts* are ``(spill_object,
      index, version)`` new pages, *gets* are ``(spill_object, index,
      leaf)``, and ``puts[:puts_before[k]]`` precede ``gets[k]``.  It
      returns ``(leaves, versions, put_costs, get_costs)``: one leaf or
      ``None`` per put, one version or ``None`` per get, and the network
      cost of each placed put and each fetched get, in order.  Every
      outcome, reservation and account effect is the one the per-page
      ``place``/``fetch`` calls would have had in that order, and
      ``owner.last_extra_s`` ends at the last op's cost.  A live peer
      hosts its share of the burst in one :meth:`host_burst` call;
    * ``drop(owner, spill_object, index_leaf_pairs, ephemeral)``
      invalidates the remote copies of some pages of one object;
    * ``holder_name(leaf)`` returns the name of the node holding a page.
    """

    def __init__(
        self,
        node_name: str,
        hypervisor: "Hypervisor",
        channel: InterNodeChannel,
        *,
        trace: Optional["TraceRecorder"] = None,
        zone: Optional[str] = None,
        port: Optional[Any] = None,
    ) -> None:
        self.node_name = node_name
        #: Rack/availability zone label (spill placement avoids peers in
        #: a degraded zone first); ``None`` means zone-agnostic.
        self.zone = zone
        self.port = port if port is not None else LivePeers()
        self.channel = channel
        self._hypervisor = hypervisor
        self._trace = trace
        self._home_vms: set = set()
        self.peers: List["RemoteTmemBackend"] = []
        self._spill_client_id: Optional[int] = None
        self._spill_account = None
        self._spill_pool_id: Optional[int] = None
        self._ephemeral_pool_id: Optional[int] = None
        #: Persistent (frontswap) spill index of this node's home VMs.
        self._spill_index: SpillIndex = {}
        #: Ephemeral (cleancache) spill index of this node's home VMs.
        self._ephemeral_index: SpillIndex = {}
        #: Foreign ephemeral pages hosted locally, oldest first:
        #: (spill_object_id, index) -> owning backend.  Insertion order
        #: is the FIFO drop order of :meth:`reclaim_for_local`.
        self._hosted_ephemeral: Dict[Tuple[int, int], "RemoteTmemBackend"] = {}
        #: Uncontended network cost of one remote put/get (precomputed so
        #: the guest replay and the hypercall layer add the same float).
        self.extra_latency_s = channel.round_trip_cost_s(1)
        #: Cost of the most recent remote operation.  Equal to
        #: ``extra_latency_s`` on an uncontended channel; includes the
        #: per-operation queue wait on a contended one.
        self.last_extra_s = self.extra_latency_s
        self.stats = RemoteTmemStats()

    # -- wiring -------------------------------------------------------------
    def register_home_vm(self, vm_id: int) -> None:
        """Mark *vm_id* as homed on this node (eligible for spilling)."""
        self._home_vms.add(vm_id)

    def connect(
        self, peers: List["RemoteTmemBackend"], spill_client_id: int
    ) -> None:
        """Finish wiring once every node of the cluster exists.

        Registers the cluster's spill client with this node's accounting,
        creates the local spill pools that will host peers' overflow, and
        attaches this backend to the local tmem backend's failure paths.
        """
        if self._spill_client_id is not None:
            raise ClusterError(f"node {self.node_name!r} is already connected")
        if any(peer is self for peer in peers):
            raise ClusterError(
                f"node {self.node_name!r} cannot be its own spill peer"
            )
        self.peers = list(peers)
        self._spill_client_id = spill_client_id
        self._create_spill_pools()

    def _create_spill_pools(self) -> None:
        """Register the spill client and create its two empty pools."""
        client = self._spill_client_id
        accounting = self._hypervisor.accounting
        store = self._hypervisor.store
        # Internal: accounted for the frame-pool invariants, but hidden
        # from the sampler so per-node policies never target it and
        # spill admission stays bounded by free frames only.
        accounting.register_vm(client, internal=True)
        self._spill_account = accounting.account(client)
        self._spill_pool_id = store.create_pool(client, persistent=True).pool_id
        self._ephemeral_pool_id = store.create_pool(
            client, persistent=False
        ).pool_id
        self._hypervisor.backend.remote = self

    def configure_faults(
        self,
        plan: Any,
        event_sink: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> None:
        """Reach peers through a :class:`DegradedPeers` port for *plan*.

        *event_sink* (the cluster's event log) receives breaker
        open/close transitions.  Without this call a fault-free run
        never enters the degraded code.
        """
        self.port = DegradedPeers(plan, event_sink)

    # -- hosting side (called by peers) -------------------------------------
    @property
    def free_tmem_pages(self) -> int:
        return self._hypervisor.free_tmem_pages

    def _pool_id_for(self, ephemeral: bool) -> int:
        pool_id = self._ephemeral_pool_id if ephemeral else self._spill_pool_id
        assert pool_id is not None
        return pool_id

    def accept_spill(
        self,
        owner: "RemoteTmemBackend",
        spill_object_id: int,
        index: int,
        version: int,
        now: float,
        *,
        ephemeral: bool = False,
    ) -> bool:
        """Store one foreign page in this node's spill pool."""
        assert self._spill_client_id is not None
        pool_id = self._pool_id_for(ephemeral)
        key = make_page_key(pool_id, spill_object_id, index)
        result = self._hypervisor.backend.put(
            self._spill_client_id, pool_id, key, version=version, now=now,
        )
        # The spill client has no mm_target, so admission is bounded by
        # free frames only; a refusal here simply means this peer is full.
        if not result.succeeded or result.remote:
            return False
        if ephemeral:
            self._hosted_ephemeral[(spill_object_id, index)] = owner
        return True

    def fetch_spill(
        self, spill_object_id: int, index: int, *, ephemeral: bool = False
    ) -> Optional[int]:
        """Fetch one foreign page back; returns its version.

        Persistent fetches are exclusive (the frame is released);
        ephemeral fetches leave the hosted copy in place, mirroring
        cleancache's non-exclusive gets.
        """
        assert self._spill_client_id is not None
        pool_id = self._pool_id_for(ephemeral)
        key = make_page_key(pool_id, spill_object_id, index)
        result = self._hypervisor.backend.get(
            self._spill_client_id, pool_id, key
        )
        if not result.succeeded or result.remote:
            return None
        return result.version

    def host_burst(
        self,
        owner: "RemoteTmemBackend",
        ops: Sequence[Tuple[int, int, Optional[int]]],
    ) -> List[int]:
        """Host *owner*'s share of one burst in the persistent spill pool.

        An op is ``(spill_object_id, index, version)`` for a put of a
        page this node does not hold, or ``(spill_object_id, index,
        None)`` for an exclusive get.  The outcome is that of one
        :meth:`accept_spill` per put and one :meth:`fetch_spill` per get
        in that order, with the spill account, the pool and the host
        frames updated once.  A put needs a free frame, counted op by op
        (:class:`~repro.errors.TmemPoolError` otherwise); a get of a
        page this node lacks raises the owner's lost-copy
        :class:`ClusterError`.  Returns the gets' versions in order.
        """
        assert self._spill_client_id is not None
        pool = self._hypervisor.store.get_pool(
            self._spill_client_id, self._pool_id_for(False)
        )
        objects = pool.radix()
        free = self.free_tmem_pages
        versions: List[int] = []
        puts = 0
        try:
            for spill_object_id, index, version in ops:
                bucket = objects.get(spill_object_id)
                if version is not None:
                    if free <= 0:
                        raise TmemPoolError("tmem pool exhausted")
                    free -= 1
                    puts += 1
                    if bucket is None:
                        objects[spill_object_id] = {index: version}
                    else:
                        bucket[index] = version
                    continue
                version = bucket.pop(index, None) if bucket is not None else None
                if version is None:
                    vm_id, object_id = divmod(
                        spill_object_id, _SPILL_OBJECT_STRIDE
                    )
                    raise owner._lost_copy(vm_id, object_id, index, self)
                if not bucket:
                    del objects[spill_object_id]
                free += 1
                versions.append(version)
        finally:
            # The ops served so far, also when one of them raised.
            gets = len(versions)
            delta = puts - gets
            pool.adjust_count(delta)
            self._hypervisor.host_memory.adjust_tmem_used(delta)
            account = self._spill_account
            account.tmem_used += delta
            account.puts_total += puts
            account.cumul_puts_total += puts
            account.puts_succ += puts
            account.cumul_puts_succ += puts
            account.gets_total += gets
            account.cumul_gets_total += gets
        return versions

    def drop_spill(
        self, spill_object_id: int, index: int, *, ephemeral: bool = False
    ) -> bool:
        """Invalidate one foreign page held in the local spill pool."""
        assert self._spill_client_id is not None
        pool_id = self._pool_id_for(ephemeral)
        key = make_page_key(pool_id, spill_object_id, index)
        result = self._hypervisor.backend.flush_page(
            self._spill_client_id, pool_id, key
        )
        if ephemeral:
            self._hosted_ephemeral.pop((spill_object_id, index), None)
        return result.succeeded and not result.remote

    def rebind_ephemeral_owner(
        self,
        spill_object_id: int,
        index: int,
        new_owner: "RemoteTmemBackend",
    ) -> None:
        """Point a hosted ephemeral page at its VM's new home backend."""
        key = (spill_object_id, index)
        if key in self._hosted_ephemeral:
            self._hosted_ephemeral[key] = new_owner

    def reclaim_for_local(self) -> bool:
        """Drop the oldest hosted foreign ephemeral page; True if freed.

        Called by the local :class:`TmemBackend` when one of this node's
        own VMs needs a frame and the pool is full: foreign
        *reconstructible* pages yield to local demand, exactly the
        ephemeral/persistent priority of the tmem design.  The owning
        node's index is updated synchronously (the invalidation
        piggybacks on the next interconnect message, so no extra latency
        is charged).  Under the epoch engine nothing is ever hosted, so
        this always defers to local eviction.
        """
        hosted = self._hosted_ephemeral
        if not hosted:
            return False
        (spill_object_id, index), owner = next(iter(hosted.items()))
        del hosted[(spill_object_id, index)]
        pool_id = self._pool_id_for(True)
        key = make_page_key(pool_id, spill_object_id, index)
        result = self._hypervisor.backend.flush_page(
            self._spill_client_id, pool_id, key
        )
        if not result.succeeded:  # pragma: no cover - index/pool desync
            raise ClusterError(
                f"node {self.node_name!r}: hosted ephemeral page "
                f"({spill_object_id}, {index}) missing from the spill pool"
            )
        self.stats.hosted_drops += 1
        owner._note_dropped(spill_object_id, index)
        return True

    def _bump_dropped(self, count: int) -> None:
        """Count *count* ephemeral drops and sample the drop trace, so
        the ``remote_dropped/<node>`` series always matches the stat
        (pressure drops, failure losses and repatriations alike)."""
        if count <= 0:
            return
        self.stats.ephemeral_dropped += count
        if self._trace is not None:
            self._trace.record(
                f"remote_dropped/{self.node_name}",
                self.channel.now,
                self.stats.ephemeral_dropped,
            )

    def _note_dropped(self, spill_object_id: int, index: int) -> None:
        """A peer dropped (or lost) one of our ephemeral pages."""
        vm_id, object_id = divmod(spill_object_id, _SPILL_OBJECT_STRIDE)
        objects = self._ephemeral_index.get(vm_id)
        if objects is None:
            return
        slots = objects.get(object_id)
        if slots is None or slots.pop(index, None) is None:
            return
        if not slots:
            del objects[object_id]
        self._bump_dropped(1)

    # -- spilling side (called by the local TmemBackend on failure paths) ----
    def _index_for(self, ephemeral: bool) -> SpillIndex:
        return self._ephemeral_index if ephemeral else self._spill_index

    def spill_put(
        self,
        vm_id: int,
        object_id: int,
        index: int,
        version: int,
        now: float,
        *,
        ephemeral: bool = False,
    ) -> bool:
        """Try to place an overflow put on a peer; True when absorbed."""
        if vm_id not in self._home_vms or not self.peers:
            return False
        objects = self._index_for(ephemeral).setdefault(vm_id, {})
        slots = objects.setdefault(object_id, {})
        held = slots.get(index)
        leaf = self.port.place(
            self, held, vm_id * _SPILL_OBJECT_STRIDE + object_id, index,
            version, now, ephemeral,
        )
        if leaf is None:
            # A refused replace-in-place keeps the old remote copy; a
            # refused new page falls through to the swap disk.
            if held is None:
                if not slots:
                    del objects[object_id]
                self.stats.spill_failures += 1
            return False
        slots[index] = leaf
        if ephemeral:
            self.stats.ephemeral_spilled += 1
            return True
        self.stats.pages_spilled += 1
        if self._trace is not None:
            self._trace.record(
                f"remote_spill/{self.node_name}", now, self.stats.pages_spilled
            )
        return True

    def remote_get(
        self, vm_id: int, object_id: int, index: int, *, ephemeral: bool = False
    ) -> Optional[int]:
        """Fetch a remote copy back; returns its version.

        Persistent copies move back (exclusive); ephemeral copies stay
        hosted on the peer (non-exclusive, like cleancache gets).
        """
        objects = self._index_for(ephemeral).get(vm_id)
        if objects is None:
            return None
        slots = objects.get(object_id)
        if slots is None:
            return None
        leaf = slots.get(index)
        if leaf is None:
            return None
        version = self.port.fetch(
            self, leaf, vm_id * _SPILL_OBJECT_STRIDE + object_id, index,
            ephemeral,
        )
        if ephemeral:
            if version is not None:
                self.stats.ephemeral_fetched += 1
                return version
            # The peer dropped it between bookkeeping rounds: an
            # ordinary (legal) cleancache miss.
        elif version is None:
            raise self._lost_copy(vm_id, object_id, index, leaf)
        else:
            self.stats.pages_fetched += 1
        del slots[index]
        if not slots:
            del objects[object_id]
        return version

    def remote_burst(
        self,
        vm_id: int,
        put_pages: Sequence[int],
        put_versions: Sequence[int],
        get_pages: Sequence[int],
        puts_before: Sequence[int],
        pages_per_object: int,
        now: float,
    ) -> Tuple[List[int], List[Optional[int]], List[float], List[float]]:
        """Serve one planned burst's remote traffic in one port call.

        *put_pages* (stored at *put_versions*) are the burst's locally
        refused frontswap puts and *get_pages* its local misses, in
        order, as page numbers of *pages_per_object* slots per object;
        ``put_pages[:puts_before[k]]`` precede ``get_pages[k]`` in
        scalar order.  The outcome equals one :meth:`spill_put` per put
        and one :meth:`remote_get` per get in that order: the same
        placements, index entries, stats and ``remote_spill`` samples.
        A get the index does not hold is a miss (``None``) and never
        reaches the port.

        Precondition (unchecked): no put page is held remotely.  A put
        page is an eviction victim, so it is resident, and a remote
        copy is fetched back exclusively when its page faults in.

        Returns ``(placed, versions, put_costs, get_costs)``: the
        positions of the puts a peer absorbed, one version or ``None``
        per get, and the network cost of each placed put and each
        fetched get, in order.
        """
        base = vm_id * _SPILL_OBJECT_STRIDE
        objects = self._spill_index.get(vm_id)
        #: Positions in *get_pages* of the pages the index holds.
        found: List[int] = []
        port_gets = []
        port_before = []
        for k, (page, before) in enumerate(zip(get_pages, puts_before)):
            object_id, index = divmod(page, pages_per_object)
            slots = objects.get(object_id) if objects is not None else None
            leaf = slots.get(index) if slots is not None else None
            if leaf is not None:
                found.append(k)
                port_gets.append((base + object_id, index, leaf))
                port_before.append(before)
        spilling = (
            bool(put_pages) and vm_id in self._home_vms and bool(self.peers)
        )
        puts: Sequence[Tuple[int, int, int]] = ()
        if spilling:
            objects = self._spill_index.setdefault(vm_id, {})
            puts = SpillPuts(base, pages_per_object, put_pages, put_versions)
        else:
            # spill_put refuses these without touching a stat.
            port_before = [0] * len(port_gets)
        leaves, fetched, put_costs, get_costs = self.port.burst(
            self, puts, port_gets, port_before, now
        )

        # Record the outcomes in scalar order, so the index dicts evolve
        # exactly as the per-page calls would have left them.
        stats = self.stats
        trace = self._trace
        series = f"remote_spill/{self.node_name}"
        placed: List[int] = []
        versions: List[Optional[int]] = [None] * len(get_pages)
        for start, end, k in burst_runs(len(puts), port_before):
            for p in compress(range(start, end), leaves[start:end]):
                object_id, index = divmod(put_pages[p], pages_per_object)
                objects.setdefault(object_id, {})[index] = leaves[p]
                placed.append(p)
                stats.pages_spilled += 1
                if trace is not None:
                    trace.record(series, now, stats.pages_spilled)
            if k is None:
                break
            version = fetched[k]
            spill_object, index, leaf = port_gets[k]
            object_id = spill_object - base
            if version is None:
                raise self._lost_copy(vm_id, object_id, index, leaf)
            stats.pages_fetched += 1
            versions[found[k]] = version
            slots = objects[object_id]
            del slots[index]
            if not slots:
                del objects[object_id]
        if spilling:
            stats.spill_failures += len(puts) - len(placed)
        return placed, versions, put_costs, get_costs

    def _lost_copy(
        self, vm_id: int, object_id: int, index: int, leaf: Any
    ) -> ClusterError:
        """The error for a persistent copy the index places on a peer
        that no longer holds it."""
        return ClusterError(
            f"node {self.node_name!r}: spill index said VM {vm_id} page "
            f"({object_id}, {index}) lives on "
            f"{self.port.holder_name(leaf)!r} but the peer does not hold it"
        )

    def remote_flush(
        self, vm_id: int, object_id: int, index: int, *, ephemeral: bool = False
    ) -> bool:
        """Invalidate one remote copy; True when one existed."""
        objects = self._index_for(ephemeral).get(vm_id)
        if objects is None:
            return False
        slots = objects.get(object_id)
        if slots is None:
            return False
        leaf = slots.pop(index, None)
        if leaf is None:
            return False
        if not slots:
            del objects[object_id]
        self.port.drop(
            self, vm_id * _SPILL_OBJECT_STRIDE + object_id, ((index, leaf),),
            ephemeral,
        )
        self.stats.pages_flushed += 1
        return True

    def remote_flush_object(
        self, vm_id: int, object_id: int, *, ephemeral: bool = False
    ) -> int:
        """Invalidate every remote copy of one object; returns the count."""
        objects = self._index_for(ephemeral).get(vm_id)
        if objects is None:
            return 0
        slots = objects.pop(object_id, None)
        if not slots:
            return 0
        self.port.drop(
            self, vm_id * _SPILL_OBJECT_STRIDE + object_id, slots.items(),
            ephemeral,
        )
        self.stats.pages_flushed += len(slots)
        return len(slots)

    def flush_vm(self, vm_id: int) -> int:
        """Drop every remote copy of one VM (teardown); returns the count."""
        flushed = 0
        for ephemeral in (False, True):
            objects = self._index_for(ephemeral).pop(vm_id, None)
            for object_id, slots in (objects or {}).items():
                self.port.drop(
                    self, vm_id * _SPILL_OBJECT_STRIDE + object_id,
                    slots.items(), ephemeral,
                )
                flushed += len(slots)
        self.stats.pages_flushed += flushed
        return flushed

    # -- failure / migration support (exact engine: leaves are backends) -----
    def detach_peer(
        self, dead: "RemoteTmemBackend"
    ) -> Dict[int, List[Tuple[int, int]]]:
        """Sever a failed peer; returns the persistent pages lost on it.

        The return value maps each home VM id to the ``(object_id,
        index)`` pairs of its frontswap pages that were hosted on the
        dead node — the cluster re-materialises those on the owners'
        swap disks.  Ephemeral pages hosted on the dead node are
        silently dropped (counted in ``stats.ephemeral_dropped``).
        """
        if dead in self.peers:
            self.peers.remove(dead)
        lost: Dict[int, List[Tuple[int, int]]] = {}
        for vm_id, objects in list(self._spill_index.items()):
            pages: List[Tuple[int, int]] = []
            for object_id, slots in list(objects.items()):
                for index in [i for i, p in slots.items() if p is dead]:
                    del slots[index]
                    pages.append((object_id, index))
                if not slots:
                    del objects[object_id]
            if pages:
                lost[vm_id] = pages
                self.stats.pages_lost += len(pages)
            if not objects:
                del self._spill_index[vm_id]
        for vm_id, objects in list(self._ephemeral_index.items()):
            for object_id, slots in list(objects.items()):
                doomed = [i for i, p in slots.items() if p is dead]
                for index in doomed:
                    del slots[index]
                self._bump_dropped(len(doomed))
                if not slots:
                    del objects[object_id]
            if not objects:
                del self._ephemeral_index[vm_id]
        return lost

    def extract_vm(
        self, vm_id: int
    ) -> Tuple[Dict[int, Dict[int, "RemoteTmemBackend"]],
               Dict[int, Dict[int, "RemoteTmemBackend"]]]:
        """Pop one home VM's spill-index entries (it migrates away).

        Hosted copies on peers are left untouched — the new home backend
        adopts them via :meth:`adopt_vm`.
        """
        self._home_vms.discard(vm_id)
        return (
            self._spill_index.pop(vm_id, {}),
            self._ephemeral_index.pop(vm_id, {}),
        )

    def adopt_vm(
        self,
        vm_id: int,
        persistent: Dict[int, Dict[int, "RemoteTmemBackend"]],
        ephemeral: Dict[int, Dict[int, "RemoteTmemBackend"]],
    ) -> List[Tuple[int, int]]:
        """Adopt a migrated VM: home registration + spill-index entries.

        Pages hosted on *this* node cannot stay "remote" copies of their
        own home — they are dropped (persistent ones are returned as
        ``(object_id, index)`` pairs so the cluster can re-materialise
        them on the owner's swap disk, ephemeral ones vanish legally).

        Hosting peers of adopted ephemeral entries are rebound so later
        drops notify this backend.
        """
        self.register_home_vm(vm_id)
        repatriated: List[Tuple[int, int]] = []
        kept: Dict[int, Dict[int, "RemoteTmemBackend"]] = {}
        for object_id, slots in persistent.items():
            surviving = {i: p for i, p in slots.items() if p is not self}
            mine = len(slots) - len(surviving)
            if mine:
                spill_object = vm_id * _SPILL_OBJECT_STRIDE + object_id
                for index, peer in slots.items():
                    if peer is self:
                        peer.drop_spill(spill_object, index, ephemeral=False)
                        repatriated.append((object_id, index))
                self.stats.pages_repatriated += mine
            if surviving:
                kept[object_id] = surviving
        if kept:
            self._spill_index[vm_id] = kept
        kept_ephemeral: Dict[int, Dict[int, "RemoteTmemBackend"]] = {}
        for object_id, slots in ephemeral.items():
            spill_object = vm_id * _SPILL_OBJECT_STRIDE + object_id
            surviving = {}
            dropped = 0
            for index, peer in slots.items():
                if peer is self:
                    peer.drop_spill(spill_object, index, ephemeral=True)
                    dropped += 1
                else:
                    peer.rebind_ephemeral_owner(spill_object, index, self)
                    surviving[index] = peer
            self._bump_dropped(dropped)
            if surviving:
                kept_ephemeral[object_id] = surviving
        if kept_ephemeral:
            self._ephemeral_index[vm_id] = kept_ephemeral
        return repatriated

    def set_peers(self, peers: List["RemoteTmemBackend"]) -> None:
        """Rewire the live peer list (cluster membership changed)."""
        self.peers = [peer for peer in peers if peer is not self]

    def reset_after_failure(self, peers: List["RemoteTmemBackend"]) -> None:
        """Reset a rejoining node's spill state: the machine rebooted.

        The spill pools' contents died with the node (peers already
        severed us via :meth:`detach_peer`), so both pools are destroyed
        and recreated empty, the spill client is re-registered, every
        index record is dropped, and the backend is rewired to the
        currently alive *peers*.
        """
        assert self._spill_client_id is not None
        # flush_vm inside destroy_vm is a no-op (the spill client never
        # spills); this releases the stale hosted frames and zeroes the
        # client's accounting so it can be re-registered.
        self._hypervisor.backend.destroy_vm(self._spill_client_id)
        self._hypervisor.accounting.unregister_vm(self._spill_client_id)
        self._spill_index.clear()
        self._ephemeral_index.clear()
        self._hosted_ephemeral.clear()
        self._create_spill_pools()
        self.last_extra_s = self.extra_latency_s
        self.set_peers(peers)

    # -- introspection -------------------------------------------------------
    def spill_holder_counts(self, *, ephemeral: bool = False) -> Dict[str, int]:
        """Home VMs' spilled pages counted per holding node name.

        Used by the inline invariant checker to cross-audit every
        owner's index against every host's spill-pool occupancy.
        """
        holder_name = self.port.holder_name
        counts: Dict[str, int] = {}
        for objects in self._index_for(ephemeral).values():
            for slots in objects.values():
                for leaf in slots.values():
                    name = holder_name(leaf)
                    counts[name] = counts.get(name, 0) + 1
        return counts

    def hosted_spill_pages(self, *, ephemeral: bool = False) -> int:
        """Foreign pages currently materialized in the local spill pool."""
        if self._spill_client_id is None:
            return 0
        pool = self._hypervisor.store.get_pool(
            self._spill_client_id, self._pool_id_for(ephemeral)
        )
        return len(pool)

    def remote_pages_of(self, vm_id: int) -> int:
        """Remote persistent copies currently held for one home VM."""
        objects = self._spill_index.get(vm_id, {})
        return sum(len(slots) for slots in objects.values())

    def remote_ephemeral_pages_of(self, vm_id: int) -> int:
        """Remote ephemeral copies currently indexed for one home VM."""
        objects = self._ephemeral_index.get(vm_id, {})
        return sum(len(slots) for slots in objects.values())

    @property
    def hosted_ephemeral_pages(self) -> int:
        """Foreign ephemeral pages currently hosted on this node."""
        return len(self._hosted_ephemeral)


class LivePeers:
    """Port of the exact shared engine: peers are live backends.

    Stateless: every decision reads the owner's and its peers' live
    state, and an index leaf is the hosting :class:`RemoteTmemBackend`.
    """

    def place(
        self,
        owner: RemoteTmemBackend,
        held: Optional[RemoteTmemBackend],
        spill_object: int,
        index: int,
        version: int,
        now: float,
        ephemeral: bool,
    ) -> Optional[RemoteTmemBackend]:
        if held is not None:
            # Replace in place on the peer already holding this page.
            if held.accept_spill(
                owner, spill_object, index, version, now, ephemeral=ephemeral
            ):
                self._charge(owner, owner, held)
                return held
            return None
        # Prefer the peer with the most free tmem; ties keep wiring order
        # so the choice is deterministic.  A max-scan picks the same peer
        # the stable sort on -free would try first, without allocating.
        peers = owner.peers
        best = peers[0]
        best_free = best.free_tmem_pages
        for peer in peers[1:]:
            free = peer.free_tmem_pages
            if free > best_free:
                best = peer
                best_free = free
        if best_free > 0:
            # A peer with free frames always absorbs: the spill client is
            # internal (no mm_target, no recursive spilling), so its put
            # is admitted on free frames alone.
            if best.accept_spill(
                owner, spill_object, index, version, now, ephemeral=ephemeral
            ):
                self._charge(owner, owner, best)
                return best
        else:
            # Every peer is full.  Trying them would fail one by one; the
            # only observable effect of each failed attempt is the put
            # accounting on that peer's spill client, so apply it
            # directly and skip the per-peer put machinery.
            for peer in peers:
                account = peer._spill_account
                account.puts_total += 1
                account.cumul_puts_total += 1
                account.cumul_puts_failed += 1
        return None

    def fetch(
        self,
        owner: RemoteTmemBackend,
        leaf: RemoteTmemBackend,
        spill_object: int,
        index: int,
        ephemeral: bool,
    ) -> Optional[int]:
        version = leaf.fetch_spill(spill_object, index, ephemeral=ephemeral)
        if version is not None:
            self._charge(owner, leaf, owner)
        return version

    def burst(
        self,
        owner: RemoteTmemBackend,
        puts: Sequence[Tuple[int, int, int]],
        gets: List[Tuple[int, int, RemoteTmemBackend]],
        puts_before: List[int],
        now: float,
    ) -> Tuple[List[Optional[RemoteTmemBackend]], List[int],
               List[float], List[float]]:
        """The port's burst entry (contract on :class:`RemoteTmemBackend`).

        Placement is decided in locals: hosting a page takes one of the
        peer's free frames and fetching one gives it back, and nothing
        else touches a peer's frames inside a burst.  A run of ``m``
        puts between two gets therefore places ``min(m, total free)``
        pages by the max-scan of :meth:`place`; the rest of the run
        finds every peer full, and those refusals bump each peer's spill
        account once, by their count.  Each involved peer then hosts its
        puts and gets in one :meth:`RemoteTmemBackend.host_burst` call,
        and the channel reserves every transfer in one
        :meth:`~repro.channels.internode.InterNodeChannel.reserve_burst`
        call, in op order.
        """
        peers = owner.peers
        free = [peer.free_tmem_pages for peer in peers]
        total = sum(free)
        slot = {peer: j for j, peer in enumerate(peers)}
        me = owner.node_name
        #: Each involved peer's ops, in scalar order (a get has no version).
        shares: Dict[RemoteTmemBackend, List[Tuple[int, int, Optional[int]]]] = {}
        hops: List[Tuple[str, str]] = []
        is_put: List[bool] = []
        leaves: List[Optional[RemoteTmemBackend]] = []
        full = 0
        for start, end, k in burst_runs(len(puts), puts_before):
            while start < end and total > 0:
                # The first peer with the most free frames, as in place().
                best_free = max(free)
                best = free.index(best_free)
                free[best] = best_free - 1
                total -= 1
                peer = peers[best]
                shares.setdefault(peer, []).append(puts[start])
                start += 1
                leaves.append(peer)
                hops.append((me, peer.node_name))
                is_put.append(True)
            if start < end:
                full += end - start
                leaves.extend(repeat(None, end - start))
            if k is None:
                break
            spill_object, index, leaf = gets[k]
            shares.setdefault(leaf, []).append((spill_object, index, None))
            hops.append((leaf.node_name, me))
            is_put.append(False)
            j = slot.get(leaf)
            if j is not None:
                free[j] += 1
                total += 1
        fetched = {
            peer: iter(peer.host_burst(owner, ops))
            for peer, ops in shares.items()
        }
        versions = [next(fetched[leaf]) for _, _, leaf in gets]
        if full:
            for peer in peers:
                account = peer._spill_account
                account.puts_total += full
                account.cumul_puts_total += full
                account.cumul_puts_failed += full
        if not hops:
            return leaves, versions, [], []
        channel = owner.channel
        costs = channel.reserve_burst(hops, channel.now)
        owner.last_extra_s = costs[-1]
        put_costs = list(compress(costs, is_put))
        get_costs = [cost for cost, put in zip(costs, is_put) if not put]
        return leaves, versions, put_costs, get_costs

    def drop(
        self,
        owner: RemoteTmemBackend,
        spill_object: int,
        index_leaf_pairs: Iterable[Tuple[int, RemoteTmemBackend]],
        ephemeral: bool,
    ) -> None:
        # Invalidations piggyback on control traffic: no transfer charged.
        for index, peer in index_leaf_pairs:
            peer.drop_spill(spill_object, index, ephemeral=ephemeral)

    @staticmethod
    def holder_name(leaf: RemoteTmemBackend) -> str:
        return leaf.node_name

    @staticmethod
    def _charge(
        owner: RemoteTmemBackend,
        src: RemoteTmemBackend,
        dst: RemoteTmemBackend,
    ) -> None:
        """Account one payload page moving *src* -> *dst*.

        Sets ``owner.last_extra_s`` to the operation's network cost: the
        constant round trip on an uncontended channel, or the
        queue-aware cost reserved on the directed link when contended.
        """
        channel = owner.channel
        if channel.contended or channel.degraded:
            owner.last_extra_s = channel.reserve(
                src.node_name, dst.node_name, 1, channel.now
            )
        else:
            channel.note_transfer(1)
            owner.last_extra_s = owner.extra_latency_s


class _PeerBreaker:
    """Circuit-breaker state a node keeps about one spill peer.

    Closed (the default) counts consecutive timeout-class failures;
    at the plan's threshold the breaker *opens* and the peer is skipped
    costlessly until the cooldown expires, after which one *half-open*
    probe is allowed — success closes the breaker, failure re-arms the
    cooldown.
    """

    __slots__ = ("failures", "opened", "open_until")

    def __init__(self) -> None:
        self.failures = 0
        self.opened = False
        self.open_until = 0.0


class DegradedPeers(LivePeers):
    """Port of runs with a fault plan: live peers behind sick links.

    A new page walks the peers in :meth:`_ranked_peers` order.  An
    attempt against a partitioned link costs one timed-out round trip
    and counts against that peer's breaker; between attempts an
    exponential backoff accrues until the plan's retry deadline.  The
    accumulated penalty is charged to the guest via ``last_extra_s``
    when a later attempt succeeds (a failed put already falls back to
    the swap disk, whose cost dominates).  Fetches and drops are the
    live port's.  One instance serves one owner.
    """

    def __init__(
        self,
        plan: Any,
        event_sink: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> None:
        self.plan = plan
        self._event_sink = event_sink
        #: The owner's breaker per peer name (forgotten when a peer
        #: rejoins fresh, all of them when the owner reboots).
        self.breakers: Dict[str, _PeerBreaker] = {}
        #: Accumulated backoff/timeout time charged by the degraded
        #: spill path (reported per node, audited by tests).
        self.retry_penalty_s = 0.0
        #: Circuit-breaker open transitions.
        self.breaker_trips = 0

    def place(
        self,
        owner: RemoteTmemBackend,
        held: Optional[RemoteTmemBackend],
        spill_object: int,
        index: int,
        version: int,
        now: float,
        ephemeral: bool,
    ) -> Optional[RemoteTmemBackend]:
        plan = self.plan
        channel = owner.channel
        me = owner.node_name
        if held is not None:
            # Replace-in-place is pinned to the holding peer: an open
            # breaker or a partition simply fails the put (the page's
            # remote copy stays valid at its old version).
            if self._skips(held, now):
                return None
            if channel.partitioned(me, held.node_name, now):
                self.retry_penalty_s += channel.timeout_cost_s(
                    me, held.node_name, now
                )
                self._failure(me, held, now)
                return None
            if held.accept_spill(
                owner, spill_object, index, version, now, ephemeral=ephemeral
            ):
                self._success(me, held, now)
                self._charge(owner, owner, held)
                return held
            return None

        penalty = 0.0
        backoff = plan.backoff_base_s
        attempts = 0
        for peer in self._ranked_peers(owner, now):
            if attempts >= plan.retry_limit:
                break
            if self._skips(peer, now):
                continue
            if attempts:
                penalty += backoff
                backoff *= plan.backoff_factor
                if penalty > plan.retry_deadline_s:
                    break
            attempts += 1
            if channel.partitioned(me, peer.node_name, now):
                penalty += channel.timeout_cost_s(me, peer.node_name, now)
                self._failure(me, peer, now)
                continue
            if peer.accept_spill(
                owner, spill_object, index, version, now, ephemeral=ephemeral
            ):
                self._success(me, peer, now)
                self._charge(owner, owner, peer)
                # The guest pays for the timeouts/backoff that preceded
                # the successful attempt on top of the transfer itself.
                owner.last_extra_s += penalty
                self.retry_penalty_s += penalty
                return peer
            # A refusal is a full peer, not a sick one: the failed put
            # was accounted by the peer's own put machinery and does not
            # count against its breaker.
        self.retry_penalty_s += penalty
        return None

    def burst(
        self,
        owner: RemoteTmemBackend,
        puts: Sequence[Tuple[int, int, int]],
        gets: List[Tuple[int, int, RemoteTmemBackend]],
        puts_before: List[int],
        now: float,
    ) -> Tuple[List[Optional[RemoteTmemBackend]], List[Optional[int]],
               List[float], List[float]]:
        """The burst entry, one :meth:`place` or ``fetch`` per page.

        Breakers, partitions and backoff make every attempt depend on
        the ones before it, so there is no run to collapse.
        """
        leaves: List[Optional[RemoteTmemBackend]] = []
        versions: List[Optional[int]] = []
        put_costs: List[float] = []
        get_costs: List[float] = []
        for start, end, k in burst_runs(len(puts), puts_before):
            for p in range(start, end):
                spill_object, index, version = puts[p]
                leaf = self.place(
                    owner, None, spill_object, index, version, now, False
                )
                leaves.append(leaf)
                if leaf is not None:
                    put_costs.append(owner.last_extra_s)
            if k is None:
                break
            spill_object, index, leaf = gets[k]
            version = self.fetch(owner, leaf, spill_object, index, False)
            versions.append(version)
            if version is not None:
                get_costs.append(owner.last_extra_s)
        return leaves, versions, put_costs, get_costs

    def _ranked_peers(
        self, owner: RemoteTmemBackend, now: float
    ) -> List[RemoteTmemBackend]:
        """Peers in degraded-mode preference order.

        Peers in a degraded *zone* rank last, peers behind a degraded
        link next-to-last; within a tier the most free tmem wins and
        ties keep wiring order — the same deterministic tie-break as the
        live port's max-scan.
        """
        peers = owner.peers
        link_degraded = [
            owner.channel.degraded_at(owner.node_name, peer.node_name, now)
            for peer in peers
        ]
        degraded_zones = {
            peer.zone
            for peer, bad in zip(peers, link_degraded)
            if bad and peer.zone is not None
        }
        decorated = [
            (
                1 if (peer.zone is not None and peer.zone in degraded_zones)
                else 0,
                1 if bad else 0,
                -peer.free_tmem_pages,
                order,
            )
            for order, (peer, bad) in enumerate(zip(peers, link_degraded))
        ]
        decorated.sort()
        return [peers[entry[3]] for entry in decorated]

    # -- circuit breakers ----------------------------------------------------
    def _skips(self, peer: RemoteTmemBackend, now: float) -> bool:
        """True while *peer*'s breaker is open (skip it costlessly)."""
        state = self.breakers.get(peer.node_name)
        return state is not None and state.opened and now < state.open_until

    def _failure(self, me: str, peer: RemoteTmemBackend, now: float) -> None:
        plan = self.plan
        state = self.breakers.get(peer.node_name)
        if state is None:
            state = self.breakers[peer.node_name] = _PeerBreaker()
        state.failures += 1
        if state.opened:
            # Failed half-open probe: re-arm the cooldown.
            state.open_until = now + plan.breaker_cooldown_s
            return
        if state.failures >= plan.breaker_threshold:
            state.opened = True
            state.open_until = now + plan.breaker_cooldown_s
            self.breaker_trips += 1
            self._emit(me, peer, "open", now)

    def _success(self, me: str, peer: RemoteTmemBackend, now: float) -> None:
        state = self.breakers.get(peer.node_name)
        if state is None:
            return
        if state.opened:
            self._emit(me, peer, "closed", now)
        state.failures = 0
        state.opened = False

    def _emit(
        self, me: str, peer: RemoteTmemBackend, state: str, now: float
    ) -> None:
        if self._event_sink is not None:
            self._event_sink({
                "kind": "breaker",
                "node": me,
                "peer": peer.node_name,
                "state": state,
                "at_s": now,
            })
