"""Tmem backend with SmarTmem admission control (Algorithm 1).

This module is the hypervisor half of the paper's contribution.  The
default Xen tmem backend admits every put while free pages remain — the
*greedy* behaviour the paper criticises.  SmarTmem adds a per-VM target
(``mm_target``) installed by the user-space Memory Manager, and a put is
admitted only while the VM's current usage is below its target *and* free
tmem remains; otherwise the put fails and the guest falls back to its swap
disk.

The control flow follows Algorithm 1 of the paper:

* ``PUT``: fail with ``E_TMEM`` if ``tmem_used >= mm_target`` (when a
  target is set) or if ``free_tmem == 0``; otherwise allocate a page, copy
  the data, bump ``tmem_used`` and ``puts_succ``.  ``puts_total`` is
  incremented for every put, successful or not.
* ``GET`` (frontswap is exclusive): if the key is present, copy it back,
  free the page and decrement ``tmem_used``.
* ``FLUSH`` page / object: deallocate and decrement ``tmem_used``.

Targets may drop below the current usage; the VM then cannot obtain new
pages until it naturally releases enough (the hypervisor never forcibly
reclaims in the paper's implementation).

Planned bursts
--------------

Page-at-a-time callers (the scalar guest engine, cleancache, flushes and
peers hosting spills) use the scalar put/get/flush entry points.  Every
frontswap burst of the batched guest engine reaches tmem through
:meth:`TmemBackend.execute_planned` instead: the burst's puts and gets,
with the count of gets ahead of each put, resolved under the same rules
in closed form, so the per-page Python overhead (result objects,
repeated account/pool lookups, per-frame host accounting) is paid once
per burst instead of once per page.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate, compress, count, repeat
from typing import Iterable, List, Optional, Sequence, Tuple

from ..devices.dram import HostMemory
from ..errors import TmemError
from .accounting import HypervisorAccounting, VmTmemAccount
from .pages import PageKey
from .tmem_store import TmemStore

__all__ = [
    "TmemOpcode",
    "TmemOpResult",
    "TmemBackend",
]

#: Outcome of :meth:`TmemBackend.execute_planned`: (put_flags,
#: get_versions, get_flags, put_costs, get_costs).
PlannedBurst = Tuple[
    Optional[List[int]], List[Optional[int]], Optional[List[int]],
    Sequence[float], Sequence[float],
]


class TmemOpcode(enum.Enum):
    """Tmem operations exposed to the guest."""

    PUT = "put"
    GET = "get"
    FLUSH_PAGE = "flush_page"
    FLUSH_OBJECT = "flush_object"


class TmemStatus(enum.IntEnum):
    """Return values of tmem hypercalls (``S_TMEM`` / ``E_TMEM``)."""

    S_TMEM = 1
    E_TMEM = 0


@dataclass(frozen=True)
class TmemOpResult:
    """Outcome of one tmem operation."""

    opcode: TmemOpcode
    status: TmemStatus
    vm_id: int
    key: Optional[PageKey] = None
    #: Version of the page returned by a successful get.
    version: Optional[int] = None
    #: Pages released by a flush-object operation.
    pages_flushed: int = 0
    #: True when the operation was serviced by a peer node's pool
    #: (remote-tmem spill); the hypercall layer then adds the modeled
    #: network cost to the latency charged to the guest.
    remote: bool = False

    @property
    def succeeded(self) -> bool:
        return self.status == TmemStatus.S_TMEM


class TmemBackend:
    """Admission control and bookkeeping for all tmem operations."""

    def __init__(
        self,
        host_memory: HostMemory,
        store: TmemStore,
        accounting: HypervisorAccounting,
    ) -> None:
        self._host = host_memory
        self._store = store
        self._accounting = accounting
        #: Remote-tmem spill port (see :mod:`repro.hypervisor.remote_tmem`).
        #: ``None`` on single hosts; a cluster attaches one per node so
        #: that overflow puts can spill to a peer node's pool and remote
        #: copies can be fetched/flushed.  Every hook below sits on a
        #: *failure* path, so the local fast paths are unaffected.
        self.remote: Optional["RemoteTmemBackend"] = None  # noqa: F821

    @property
    def remote_extra_latency_s(self) -> float:
        """Network cost of the most recent remote put/get (0 on single
        hosts).  On an uncontended interconnect this is a constant; on a
        contended one it includes the per-operation queue wait, so the
        hypercall layer must read it immediately after the operation."""
        return self.remote.last_extra_s if self.remote is not None else 0.0

    # -- helpers -----------------------------------------------------------------
    def _admit_put(self, account: VmTmemAccount) -> bool:
        """Algorithm 1, lines 4-8: decide whether a put may proceed."""
        if account.has_target and account.tmem_used >= account.mm_target:
            return False
        if self._host.tmem_free_pages == 0:
            return False
        return True

    # -- operations --------------------------------------------------------------
    def put(
        self,
        vm_id: int,
        pool_id: int,
        key: PageKey,
        *,
        version: int,
        now: float,
    ) -> TmemOpResult:
        """Attempt to store one page in tmem (Algorithm 1, PUT branch)."""
        account = self._accounting.account(vm_id)
        pool = self._store.get_pool(vm_id, pool_id)

        account.puts_total += 1
        account.cumul_puts_total += 1

        # A put to an existing key replaces the page in place (no new frame).
        if key in pool:
            pool.insert(key, version)
            account.puts_succ += 1
            account.cumul_puts_succ += 1
            return TmemOpResult(TmemOpcode.PUT, TmemStatus.S_TMEM, vm_id, key)

        if not self._admit_put(account):
            remote = self.remote
            reclaimed = (
                remote is not None
                and not account.internal
                and self._host.tmem_free_pages == 0
                and (not account.has_target
                     or account.tmem_used < account.mm_target)
                and remote.reclaim_for_local()
            )
            if not reclaimed:
                if remote is not None and remote.spill_put(
                    vm_id, key.object_id, key.index, version, now,
                    ephemeral=not pool.persistent,
                ):
                    account.puts_remote += 1
                    account.cumul_puts_remote += 1
                    return TmemOpResult(
                        TmemOpcode.PUT, TmemStatus.S_TMEM, vm_id, key,
                        remote=True,
                    )
                account.cumul_puts_failed += 1
                return TmemOpResult(
                    TmemOpcode.PUT, TmemStatus.E_TMEM, vm_id, key
                )
            # A hosted foreign ephemeral page yielded its frame to local
            # demand: fall through to the ordinary allocation below.

        self._host.allocate_tmem_page()
        pool.insert(key, version)
        account.tmem_used += 1
        account.puts_succ += 1
        account.cumul_puts_succ += 1
        return TmemOpResult(TmemOpcode.PUT, TmemStatus.S_TMEM, vm_id, key)

    def get(self, vm_id: int, pool_id: int, key: PageKey) -> TmemOpResult:
        """Fetch a page from tmem.

        Frontswap gets are *exclusive*: the page is removed and the frame
        returned to the pool, because the guest immediately owns the data
        again.  Cleancache (ephemeral pools) keeps the page.
        """
        account = self._accounting.account(vm_id)
        pool = self._store.get_pool(vm_id, pool_id)
        account.gets_total += 1
        account.cumul_gets_total += 1

        version = pool.remove(key) if pool.persistent else pool.lookup(key)
        if version is None:
            remote = self.remote
            if remote is not None:
                version = remote.remote_get(
                    vm_id, key.object_id, key.index,
                    ephemeral=not pool.persistent,
                )
                if version is not None:
                    return TmemOpResult(
                        TmemOpcode.GET,
                        TmemStatus.S_TMEM,
                        vm_id,
                        key,
                        version=version,
                        remote=True,
                    )
            return TmemOpResult(TmemOpcode.GET, TmemStatus.E_TMEM, vm_id, key)

        if pool.persistent:
            self._host.free_tmem_page()
            account.tmem_used -= 1
            if account.tmem_used < 0:
                raise TmemError(f"VM {vm_id} tmem_used went negative on get")
        return TmemOpResult(
            TmemOpcode.GET, TmemStatus.S_TMEM, vm_id, key, version=version
        )

    def flush_page(self, vm_id: int, pool_id: int, key: PageKey) -> TmemOpResult:
        """Invalidate one tmem page (Algorithm 1, FLUSH branch)."""
        account = self._accounting.account(vm_id)
        pool = self._store.get_pool(vm_id, pool_id)
        account.flushes_total += 1
        account.cumul_flushes_total += 1

        if pool.remove(key) is None:
            remote = self.remote
            if remote is not None and remote.remote_flush(
                vm_id, key.object_id, key.index,
                ephemeral=not pool.persistent,
            ):
                return TmemOpResult(
                    TmemOpcode.FLUSH_PAGE, TmemStatus.S_TMEM, vm_id, key,
                    remote=True,
                )
            return TmemOpResult(TmemOpcode.FLUSH_PAGE, TmemStatus.E_TMEM, vm_id, key)
        self._host.free_tmem_page()
        account.tmem_used -= 1
        if account.tmem_used < 0:
            raise TmemError(f"VM {vm_id} tmem_used went negative on flush")
        return TmemOpResult(TmemOpcode.FLUSH_PAGE, TmemStatus.S_TMEM, vm_id, key)

    def flush_object(self, vm_id: int, pool_id: int, object_id: int) -> TmemOpResult:
        """Invalidate every page of one object."""
        account = self._accounting.account(vm_id)
        pool = self._store.get_pool(vm_id, pool_id)
        account.flushes_total += 1
        account.cumul_flushes_total += 1

        removed = pool.remove_object(object_id)
        for _ in range(removed):
            self._host.free_tmem_page()
        account.tmem_used -= removed
        if account.tmem_used < 0:
            raise TmemError(f"VM {vm_id} tmem_used went negative on flush_object")
        removed_remote = 0
        if self.remote is not None:
            removed_remote = self.remote.remote_flush_object(
                vm_id, object_id, ephemeral=not pool.persistent
            )
        total_removed = removed + removed_remote
        status = TmemStatus.S_TMEM if total_removed else TmemStatus.E_TMEM
        return TmemOpResult(
            TmemOpcode.FLUSH_OBJECT,
            status,
            vm_id,
            pages_flushed=total_removed,
            remote=bool(removed_remote),
        )

    # -- closed-form planned data path -------------------------------------------
    def execute_planned(
        self,
        vm_id: int,
        pool_id: int,
        put_pages: Sequence[int],
        first_version: int,
        get_pages: Sequence[int],
        gets_before_puts: Sequence[int],
        pages_per_object: int,
        *,
        now: float,
    ) -> PlannedBurst:
        """Service one planned access burst without materializing ops.

        The guest's planners know the exact interleaving of a burst's
        puts and gets before issuing them: puts are consecutive (one per
        miss once guest RAM is full) with at most one exclusive get
        between consecutive puts.  Algorithm 1's admission
        then has a closed form over the *headroom* ``h0``: the free
        frames under the greedy default, or ``min(free frames, mm_target
        - tmem_used)`` when a target is installed.  Targets change only
        between bursts (the Memory Manager's write-back), and inside a
        burst an admitted put moves ``tmem_used`` up and the free frames
        down by one, an exclusive local get moves both back and a refused
        put moves neither, so the headroom moves exactly as the free
        frames do under greedy.  Put *i* therefore admits iff the puts
        admitted before it number fewer than ``f_i = h0 + local[i]``,
        where ``local[i]`` counts the gets ahead of put *i* that hit the
        local pool (``gets_before_puts[i]`` on a single host).
        ``f_i - i`` is non-increasing (``local`` steps by at most one per
        put), so the whole burst admits iff ``f_last >= n_puts`` and
        every put fails iff ``f_last <= 0``; only the bursts in between
        walk the puts.  ``h0`` is not clamped at 0: a VM above its
        target must pay the deficit back with gets before a put admits.

        With remote tmem attached, a get that misses the local pool is a
        remote get and a refused put is offered to a peer.  Neither
        moves ``tmem_used`` or the local free frames, so the local pass
        above decides admission alone, and the refused puts and remote
        gets go to :meth:`RemoteTmemBackend.remote_burst
        <repro.hypervisor.remote_tmem.RemoteTmemBackend.remote_burst>`
        afterwards, in scalar order (get *g* precedes put *i* iff ``g <
        gets_before_puts[i]``).  The one remote state local admission
        reads is the ``H`` foreign ephemeral pages this node hosts: a
        put that would admit but for zero free frames first reclaims
        the oldest of them.  The free frames then act as ``free + H``
        in ``h0``, and the reclaims are the top-ups wherever the
        admitted puts would drive the free frames below zero, taken
        before the pool's frames are committed.  The resulting
        counters, pool contents, statuses, peer state and costs are
        bit-identical to issuing the equivalent op sequence through the
        scalar :meth:`put` and :meth:`get`, one op at a time.

        Pages are guest page numbers, split into (object, index) as the
        guest's addresser splits them.  A burst whose pages all lie
        below *pages_per_object* touches object 0 alone, where a page's
        index is its page number: its gets are one bulk pop and its
        admitted puts one bulk update of that bucket.  Only a burst that
        reaches a later object walks its pages with ``divmod``.

        Preconditions (guaranteed by the planner, not re-checked): every
        put key is absent from the pool and from the peers (victims are
        resident, and a remote copy is fetched back exclusively when its
        page faults in), every get key is held locally or, with remote
        tmem attached, remotely (the client's stored-page map mirrors
        both), puts and gets are disjoint, ``gets_before_puts`` is
        non-decreasing with steps <= 1.  On a single host, a get that
        misses anyway raises :class:`TmemError` naming the first missed
        page, and leaves the pool, the account and the host frames as
        they were; with remote tmem it comes back as a failed get, as
        from the scalar :meth:`get`.

        A planned burst is a frontswap burst: a non-persistent pool
        raises :class:`TmemError`.  Returns ``(put_flags, get_versions,
        get_flags, put_costs, get_costs)``: ``put_flags`` is ``None``
        when every put admitted locally, else one flag per put (1 local,
        2 remote, 0 refused); ``get_flags`` is ``None`` when every get
        hit locally, else one flag per get (1 local, 2 remote, 0 missed,
        with a ``None`` version); the costs are the network cost of each
        remote put and each remote get, in order.
        """
        account = self._accounting.account(vm_id)
        pool = self._store.get_pool(vm_id, pool_id)
        if not pool.persistent:
            raise TmemError(
                f"VM {vm_id}: a planned burst needs a persistent pool, "
                f"not pool {pool_id}"
            )
        remote = self.remote

        n_puts = len(put_pages)
        n_gets = len(get_pages)
        objects = pool.radix()
        objects_get = objects.get
        # Object 0's bucket, when the whole burst lies in it.
        bucket = None
        if (max(get_pages, default=0) < pages_per_object
                and max(put_pages, default=0) < pages_per_object):
            bucket = objects.setdefault(0, {})

        # Gets run first: their keys are disjoint from the puts', so the
        # order of the two passes does not change the result, and a miss
        # finds nothing edited but the pages this pass popped.
        get_versions: List[Optional[int]] = []
        #: Positions of the gets that missed the local pool.
        remote_gets: List[int] = []
        if n_gets and bucket is not None:
            get_versions = list(map(bucket.pop, get_pages, repeat(None)))
            if None in get_versions:
                remote_gets = [
                    g for g, version in enumerate(get_versions)
                    if version is None
                ]
                if remote is None:
                    # Put back every page the pass popped.
                    bucket.update(
                        (page_no, version)
                        for page_no, version in zip(get_pages, get_versions)
                        if version is not None
                    )
                    if not bucket:
                        del objects[0]
                    raise TmemError(
                        f"VM {vm_id}: planned get missed page "
                        f"(0, {get_pages[remote_gets[0]]}) in a "
                        "persistent pool"
                    )
        elif n_gets:
            append_version = get_versions.append
            for page_no in get_pages:
                object_id, index = divmod(page_no, pages_per_object)
                pages = objects_get(object_id)
                version = pages.pop(index, None) if pages is not None else None
                if version is None:
                    if remote is not None:
                        remote_gets.append(len(get_versions))
                        append_version(None)
                        continue
                    # Put back what this loop popped before the miss.
                    for popped, old in zip(get_pages, get_versions):
                        obj, idx = divmod(popped, pages_per_object)
                        objects.setdefault(obj, {})[idx] = old
                    raise TmemError(
                        f"VM {vm_id}: planned get missed page "
                        f"({object_id}, {index}) in a persistent pool"
                    )
                if not pages:
                    del objects[object_id]
                append_version(version)

        put_flags: Optional[List[int]] = None
        puts_succ = n_puts
        refused: Sequence[int] = ()
        if n_puts:
            local = gets_before_puts
            if remote_gets:
                # A remote get frees no local frame: admission counts
                # only the local hits among the gets ahead of each put.
                hits = list(accumulate(
                    (v is not None for v in get_versions), initial=0
                ))
                local = [hits[g] for g in gets_before_puts]
            free = self._host.tmem_free_pages
            hosted = (
                remote.hosted_ephemeral_pages
                if remote is not None and not account.internal else 0
            )
            headroom = free + hosted
            if account.has_target:
                headroom = min(headroom, account.mm_target - account.tmem_used)
            bound = headroom + local[-1]
            admitted: Iterable[Tuple[int, int]] = zip(
                put_pages, count(first_version)
            )
            if bound <= 0:
                # The bound never rises above zero: every put fails.
                put_flags = [0] * n_puts
                puts_succ = 0
                admitted = ()
                if remote is not None:
                    refused = range(n_puts)
            elif bound < n_puts:
                put_flags = []
                append_flag = put_flags.append
                succ = 0
                for gets_done in local:
                    if succ < headroom + gets_done:
                        succ += 1
                        append_flag(1)
                    else:
                        append_flag(0)
                puts_succ = succ
                admitted = compress(admitted, put_flags)
                if remote is not None:
                    refused = [i for i, ok in enumerate(put_flags) if not ok]
            if bucket is not None:
                bucket.update(admitted)
            else:
                for page_no, version in admitted:
                    object_id, index = divmod(page_no, pages_per_object)
                    pages = objects_get(object_id)
                    if pages is None:
                        objects[object_id] = {index: version}
                    else:
                        pages[index] = version
            if hosted and puts_succ:
                # Frames the admitted puts need beyond the free ones and
                # those the local gets before them release.
                need = taken = 0
                for ok, gets_done in zip(put_flags or repeat(1), local):
                    if ok:
                        taken += 1
                        if taken - gets_done > need:
                            need = taken - gets_done
                for _ in range(need - free):
                    remote.reclaim_for_local()

        if bucket is not None and not bucket:
            del objects[0]
        count_delta = puts_succ - n_gets + len(remote_gets)
        if count_delta:
            pool.adjust_count(count_delta)
        account.puts_total += n_puts
        account.cumul_puts_total += n_puts
        account.puts_succ += puts_succ
        account.cumul_puts_succ += puts_succ
        account.gets_total += n_gets
        account.cumul_gets_total += n_gets
        self._host.adjust_tmem_used(count_delta)
        account.tmem_used += count_delta
        if not (refused or remote_gets):
            account.cumul_puts_failed += n_puts - puts_succ
            return put_flags, get_versions, None, (), ()

        # The remote pass: one call, in scalar order.  Get g follows the
        # puts with gets_before_puts[i] <= g, which are the first
        # bisect_right(gets_before_puts, g) puts.
        puts_before = [
            bisect_left(refused, bisect_right(gets_before_puts, g))
            for g in remote_gets
        ]
        placed, versions, put_costs, get_costs = remote.remote_burst(
            vm_id,
            [put_pages[i] for i in refused],
            [first_version + i for i in refused],
            [get_pages[g] for g in remote_gets],
            puts_before,
            pages_per_object,
            now,
        )
        for k in placed:
            put_flags[refused[k]] = 2
        get_flags: Optional[List[int]] = None
        if remote_gets:
            get_flags = [1] * n_gets
            for g, version in zip(remote_gets, versions):
                get_versions[g] = version
                get_flags[g] = 0 if version is None else 2
        puts_remote = len(placed)
        account.puts_remote += puts_remote
        account.cumul_puts_remote += puts_remote
        account.cumul_puts_failed += n_puts - puts_succ - puts_remote
        return put_flags, get_versions, get_flags, put_costs, get_costs

    def destroy_vm(self, vm_id: int) -> int:
        """Release every tmem page of a VM at teardown; returns pages freed."""
        if self.remote is not None:
            # Remote copies live on peer nodes and are not part of this
            # VM's local accounting; drop them so the peers do not leak.
            self.remote.flush_vm(vm_id)
        freed = self._store.destroy_vm_pools(vm_id)
        account = self._accounting.maybe_account(vm_id)
        for _ in range(freed):
            self._host.free_tmem_page()
        if account is not None:
            account.tmem_used -= freed
            if account.tmem_used != 0:
                raise TmemError(
                    f"VM {vm_id} teardown left tmem_used={account.tmem_used}"
                )
        return freed
