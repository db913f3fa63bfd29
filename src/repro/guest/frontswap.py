"""Frontswap front end: tmem as a cache in front of the swap device.

When the guest kernel's reclaim path decides to swap out an anonymous
page, frontswap first offers the page to tmem via a put hypercall.  If the
put succeeds the disk write (and the later disk read) is avoided; if it
fails the page goes to the swap device as usual.  On a page fault for a
swapped page, frontswap is consulted first (get hypercall); only on a miss
does the kernel issue the disk read.

This module is a thin, accounted wrapper around the hypercall interface:
it tracks which guest pages are currently stored in tmem, assigns the
monotonically increasing versions used to verify store consistency, and
exposes store/load/invalidate operations in the vocabulary the guest
kernel uses.

Batch API
---------

The vectorized guest-kernel access path stages a whole burst's worth of
tmem traffic on a :class:`FrontswapBatch` (obtained from
:meth:`FrontswapClient.begin_batch`): ``stage_store``/``stage_load``/
``stage_flush`` append operations in guest-program order, and
:meth:`FrontswapBatch.execute` ships them in a single batched hypercall.
Versions are assigned at staging time from the same clock the scalar
path uses, and ``execute`` applies exactly the per-page bookkeeping
(stored-page tracking, statistics, version verification) that the scalar
store/load/invalidate calls perform — so a staged burst is
indistinguishable, counter for counter, from its scalar equivalent.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat
from typing import Dict, List, Optional, Tuple

from ..errors import GuestError
from ..hypervisor.hypercalls import HypercallInterface
from ..hypervisor.tmem_backend import (
    BATCH_FLUSH,
    BATCH_GET,
    BATCH_PUT,
    PlannedBurst,
)
from .addressing import SwapEntryAddresser

__all__ = ["FrontswapStats", "FrontswapClient", "FrontswapBatch"]


@dataclass
class FrontswapStats:
    """Lifetime frontswap counters for one VM (mirrors /sys/kernel/debug)."""

    succ_stores: int = 0
    failed_stores: int = 0
    loads: int = 0
    failed_loads: int = 0
    invalidates: int = 0


class FrontswapClient:
    """Guest-side frontswap implementation backed by tmem hypercalls."""

    def __init__(
        self,
        vm_id: int,
        pool_id: int,
        hypercalls: HypercallInterface,
        *,
        pages_per_object: Optional[int] = None,
    ) -> None:
        self._vm_id = vm_id
        self._pool_id = pool_id
        self._hypercalls = hypercalls
        kwargs = {}
        if pages_per_object is not None:
            kwargs["pages_per_object"] = pages_per_object
        self._addresser = SwapEntryAddresser(pool_id=pool_id, **kwargs)
        #: guest page number -> version stored in tmem
        self._stored: Dict[int, int] = {}
        self._version_clock = 0
        #: Network cost of each remote op of the staged batches since the
        #: last drain, in op order (see GuestKernel._replay_plan).
        self._remote_costs: List[float] = []
        self.stats = FrontswapStats()

    # -- introspection -------------------------------------------------------
    @property
    def vm_id(self) -> int:
        return self._vm_id

    @property
    def pool_id(self) -> int:
        return self._pool_id

    @property
    def pages_in_tmem(self) -> int:
        return len(self._stored)

    @property
    def pages_per_object(self) -> int:
        """Slots per tmem object (the swap-entry radix of the addresser)."""
        return self._addresser.pages_per_object

    def holds(self, page: int) -> bool:
        return page in self._stored

    @property
    def held_pages(self) -> Dict[int, int]:
        """Live page -> version map of tmem-resident pages.

        Exposed for batch membership classification; callers must treat
        it as read-only.
        """
        return self._stored

    def rebind(self, pool_id: int, hypercalls: HypercallInterface) -> None:
        """Point the client at a new pool/hypercall interface (migration).

        Guest-side state — the stored-page map and the version clock —
        is preserved: remotely spilled pages stay reachable through the
        new node's spill index, and versions keep their global order.
        """
        self._pool_id = pool_id
        self._hypercalls = hypercalls
        self._addresser = SwapEntryAddresser(
            pool_id=pool_id,
            pages_per_object=self._addresser.pages_per_object,
        )

    def drain_remote_costs(self) -> List[float]:
        """Per-op network costs of remote ops since the last drain.

        The batched guest engine drains these once per burst and replays
        them in op order, charging each remote put/get its exact
        (queue-aware, on contended interconnects) network cost.
        """
        costs = self._remote_costs
        if costs:
            self._remote_costs = []
        return costs

    def forget(self, page: int) -> Optional[int]:
        """Drop guest-side tracking of *page* without a flush hypercall.

        Used by the cluster's node-failure recovery: the remote copy is
        gone with the dead peer, so a later load must not expect it (and
        must not trip the vanished-persistent-page check).  Returns the
        forgotten version, or ``None`` if the page was not tracked.
        """
        return self._stored.pop(page, None)

    # -- operations ------------------------------------------------------------
    def store(self, page: int, *, now: float) -> Tuple[bool, float]:
        """Try to put *page* into tmem.

        Returns ``(succeeded, latency_s)``.  On success the page is tracked
        as tmem-resident; on failure the caller must fall back to the swap
        device.
        """
        self._version_clock += 1
        key = self._addresser.key_for(page)
        result, latency = self._hypercalls.tmem_put(
            self._vm_id, self._pool_id, key, version=self._version_clock, now=now
        )
        if result.succeeded:
            self._stored[page] = self._version_clock
            self.stats.succ_stores += 1
            return True, latency
        self.stats.failed_stores += 1
        return False, latency

    def load(self, page: int) -> Tuple[bool, float]:
        """Try to get *page* back from tmem.

        Returns ``(hit, latency_s)``.  A hit removes the page from tmem
        (frontswap gets are exclusive) and verifies that the version
        returned matches the last stored version.
        """
        key = self._addresser.key_for(page)
        result, latency = self._hypercalls.tmem_get(self._vm_id, self._pool_id, key)
        if not result.succeeded:
            self.stats.failed_loads += 1
            # The guest believed the page was in tmem but it is gone; that
            # would be data loss for a persistent pool, so surface it.
            if page in self._stored:
                raise GuestError(
                    f"VM {self._vm_id}: frontswap page {page} vanished from "
                    "a persistent tmem pool"
                )
            return False, latency
        expected = self._stored.pop(page, None)
        if expected is not None and result.version != expected:
            raise GuestError(
                f"VM {self._vm_id}: frontswap page {page} returned stale data "
                f"(version {result.version} != {expected})"
            )
        self.stats.loads += 1
        return True, latency

    def invalidate(self, page: int) -> Tuple[bool, float]:
        """Flush *page* from tmem (the guest freed or re-dirtied it)."""
        if page not in self._stored:
            return False, 0.0
        key = self._addresser.key_for(page)
        result, latency = self._hypercalls.tmem_flush_page(
            self._vm_id, self._pool_id, key
        )
        self._stored.pop(page, None)
        self.stats.invalidates += 1
        return result.succeeded, latency

    def begin_batch(self) -> "FrontswapBatch":
        """Start staging a burst of tmem operations (see module docs)."""
        return FrontswapBatch(self)

    def execute_planned(
        self,
        put_pages: List[int],
        get_pages: List[int],
        gets_before_puts,
        *,
        now: float,
    ) -> PlannedBurst:
        """Ship one planned burst through the closed-form hypercall path.

        *put_pages* are the eviction victims in put order, *get_pages*
        the tmem-resident misses in get order, and *gets_before_puts*
        the per-put count of gets the op sequence places before that put
        (the planner derives it from the burst interleaving).  Applies
        the exact per-page effects of the equivalent staged batch —
        stored-page tracking, version audit, statistics — with bulk
        C-level operations.  A page a peer node absorbed (put flag 2) is
        stored like a local one; a get that neither the local pool nor
        a peer could serve raises the staged path's :class:`GuestError`.

        Returns the hypercall's ``(put_flags, get_versions, get_flags,
        put_costs, get_costs)``:
        ``put_flags`` is ``None`` when every put succeeded locally, else
        one flag per put in put order, 1 (local), 2 (remote) or 0
        (refused); ``get_flags`` likewise per get, ``None`` when every
        get hit locally; the costs are the network cost of each remote
        put and each remote get, in order.
        """
        first_version = self._version_clock + 1
        planned = self._hypercalls.tmem_planned(
            self._vm_id,
            self._pool_id,
            put_pages,
            first_version,
            get_pages,
            gets_before_puts,
            self._addresser.pages_per_object,
            now=now,
        )
        put_flags, get_versions, _get_flags, _put_costs, _get_costs = planned
        n_puts = len(put_pages)
        self._version_clock += n_puts
        stored = self._stored
        stats = self.stats
        if n_puts:
            versions = range(first_version, first_version + n_puts)
            if put_flags is None:
                stored.update(zip(put_pages, versions))
                stats.succ_stores += n_puts
            else:
                stored.update(compress(zip(put_pages, versions), put_flags))
                refused = put_flags.count(0)
                stats.succ_stores += n_puts - refused
                stats.failed_stores += refused
        if get_pages:
            expected = list(map(stored.pop, get_pages, repeat(None)))
            if expected != get_versions:
                for page, exp, ver in zip(get_pages, expected, get_versions):
                    if ver is None:
                        raise GuestError(
                            f"VM {self._vm_id}: frontswap page {page} "
                            "vanished from a persistent tmem pool"
                        )
                    if exp is not None and exp != ver:
                        raise GuestError(
                            f"VM {self._vm_id}: frontswap page {page} "
                            f"returned stale data (version {ver} != {exp})"
                        )
            stats.loads += len(get_pages)
        return planned

    def invalidate_area(self) -> Tuple[int, float]:
        """Flush everything (swapoff / guest shutdown).

        Returns ``(pages_flushed, total_latency_s)``.
        """
        total_latency = 0.0
        flushed = 0
        for object_id in sorted({self._addresser.object_of(p) for p in self._stored}):
            result, latency = self._hypercalls.tmem_flush_object(
                self._vm_id, self._pool_id, object_id
            )
            total_latency += latency
            flushed += result.pages_flushed
        self._stored.clear()
        self.stats.invalidates += flushed
        return flushed, total_latency


class FrontswapBatch:
    """Guest-side staging area for one burst's batched tmem operations.

    Operations are staged in guest-program order and shipped with a
    single :meth:`~repro.hypervisor.hypercalls.HypercallInterface.
    tmem_batch` hypercall.  Staging a store consumes a version from the
    client's version clock immediately, so interleaved scalar and staged
    traffic would observe the same version sequence.  :meth:`execute`
    applies the same per-page effects as the scalar store/load/invalidate
    calls and returns the per-operation success flags in staging order;
    when the hypervisor reports that every operation succeeded — the
    common case — the effects are applied with bulk dict/list operations
    instead of a per-operation walk.
    """

    __slots__ = (
        "_client",
        "_ops",
        "_pages",
        "_pages_per_object",
        "_put_pages",
        "_put_versions",
        "_get_pages",
        "_flushes",
    )

    def __init__(self, client: FrontswapClient) -> None:
        self._client = client
        self._ops: List[tuple[int, int, int, int]] = []
        self._pages: List[int] = []
        self._pages_per_object = client._addresser.pages_per_object
        self._put_pages: List[int] = []
        self._put_versions: List[int] = []
        self._get_pages: List[int] = []
        self._flushes = 0

    def __len__(self) -> int:
        return len(self._ops)

    def stage_store(self, page: int) -> int:
        """Stage a put for *page*; returns the operation's batch index."""
        client = self._client
        version = client._version_clock + 1
        client._version_clock = version
        object_id, index = divmod(page, self._pages_per_object)
        ops = self._ops
        ops.append((BATCH_PUT, object_id, index, version))
        self._pages.append(page)
        self._put_pages.append(page)
        self._put_versions.append(version)
        return len(ops) - 1

    def stage_load(self, page: int) -> int:
        """Stage an (exclusive) get for *page*; returns the batch index."""
        object_id, index = divmod(page, self._pages_per_object)
        ops = self._ops
        ops.append((BATCH_GET, object_id, index, 0))
        self._pages.append(page)
        self._get_pages.append(page)
        return len(ops) - 1

    def stage_flush(self, page: int) -> int:
        """Stage a flush for *page*; returns the batch index."""
        object_id, index = divmod(page, self._pages_per_object)
        ops = self._ops
        ops.append((BATCH_FLUSH, object_id, index, 0))
        self._pages.append(page)
        self._flushes += 1
        return len(ops) - 1

    def _reset(self) -> None:
        self._ops = []
        self._pages = []
        self._put_pages = []
        self._put_versions = []
        self._get_pages = []
        self._flushes = 0

    def execute(self, *, now: float) -> List[int]:
        """Ship the staged operations in one hypercall and apply effects.

        Returns one status per staged operation, in staging order: ``0``
        for a failure, ``1`` for a local success and ``2`` for an
        operation serviced remotely by a peer node (all truthy values
        are successes; the guest kernel's latency replay uses the
        distinction to charge the network cost of remote operations).
        The staging area is reset so the batch object can be reused for
        the remainder of the burst.
        """
        if not self._ops:
            return []
        client = self._client
        result, _latency = client._hypercalls.tmem_batch(
            client._vm_id, client._pool_id, self._ops, now=now
        )
        if result.remote_costs:
            client._remote_costs.extend(result.remote_costs)
        stored = client._stored
        stats = client.stats

        put_pages = self._put_pages
        get_pages = self._get_pages
        # Bulk apply reorders effects kind-by-kind, which is only sound
        # when no page appears under two different op kinds in the same
        # batch (e.g. got then re-put, or flushed then re-put) — staging
        # order would matter for those.  Flushes are only ever staged
        # alone (the free() path), so their guard is simply "no data ops".
        if result.all_succeeded and (
            not self._flushes or (not put_pages and not get_pages)
        ) and (
            not put_pages
            or not get_pages
            or set(put_pages).isdisjoint(get_pages)
        ):
            # Bulk apply: no failures anywhere, so the per-op effects
            # reduce to C-speed dict updates plus one version audit.
            if put_pages:
                stored.update(zip(put_pages, self._put_versions))
                stats.succ_stores += len(put_pages)
            if get_pages:
                expected = list(map(stored.pop, get_pages, repeat(None)))
                got = result.get_versions
                if expected != got:
                    for page, exp, ver in zip(get_pages, expected, got):
                        if exp is not None and exp != ver:
                            raise GuestError(
                                f"VM {client._vm_id}: frontswap page {page} "
                                f"returned stale data (version {ver} != "
                                f"{exp})"
                            )
                stats.loads += len(get_pages)
            if self._flushes:
                # Flushed pages must leave the stored map; they are the
                # ops that are neither puts nor gets.
                for (opcode, _obj, _idx, _ver), page in zip(
                    self._ops, self._pages
                ):
                    if opcode == BATCH_FLUSH:
                        stored.pop(page, None)
                stats.invalidates += self._flushes
            succeeded = [1] * len(self._ops)
            self._reset()
            return succeeded

        stored_pop = stored.pop
        if (
            not result.all_succeeded
            and not self._flushes
            and (not put_pages or not get_pages
                 or set(put_pages).isdisjoint(get_pages))
        ):
            # Mixed success/failure batch without flushes: apply the
            # effects kind-by-kind with C-level bulk operations, using
            # the hypervisor's per-kind status subsequences.  The
            # statuses list itself is exactly what the op-by-op walk
            # would have returned (put/get branches echo the status,
            # and there are no flushes to normalise), so it is passed
            # through untouched.
            put_ok = result.put_statuses
            get_ok = result.get_statuses
            if put_pages:
                stored.update(
                    compress(zip(put_pages, self._put_versions), put_ok)
                )
            loads = 0
            if get_pages:
                get_versions = result.get_versions
                hit_pages = list(compress(get_pages, get_ok))
                if hit_pages:
                    expected = list(map(stored_pop, hit_pages, repeat(None)))
                    got = list(compress(get_versions, get_ok))
                    if expected != got:
                        for page, exp, ver in zip(hit_pages, expected, got):
                            if exp is not None and exp != ver:
                                raise GuestError(
                                    f"VM {client._vm_id}: frontswap page "
                                    f"{page} returned stale data (version "
                                    f"{ver} != {exp})"
                                )
                    loads = len(hit_pages)
                missed = len(get_pages) - loads
                if missed:
                    stats.failed_loads += missed
                    for page, ok in zip(get_pages, get_ok):
                        if not ok and page in stored:
                            raise GuestError(
                                f"VM {client._vm_id}: frontswap page {page} "
                                "vanished from a persistent tmem pool"
                            )
            stats.succ_stores += result.puts_succ + result.puts_remote
            stats.failed_stores += result.puts_failed
            stats.loads += loads
            statuses = result.statuses
            self._reset()
            return statuses

        succeeded: List[int] = []
        append = succeeded.append
        get_versions = result.get_versions
        get_cursor = 0
        loads = invalidates = 0
        statuses = result.statuses if not result.all_succeeded else repeat(1)
        for (opcode, _obj, _idx, version), page, status in zip(
            self._ops, self._pages, statuses
        ):
            if opcode == BATCH_PUT:
                if status:
                    stored[page] = version
                    append(status)
                else:
                    append(0)
            elif opcode == BATCH_GET:
                got_version = get_versions[get_cursor]
                get_cursor += 1
                if not status:
                    append(0)
                    client.stats.failed_loads += 1
                    if page in stored:
                        raise GuestError(
                            f"VM {client._vm_id}: frontswap page {page} "
                            "vanished from a persistent tmem pool"
                        )
                    continue
                expected = stored_pop(page, None)
                if expected is not None and got_version != expected:
                    raise GuestError(
                        f"VM {client._vm_id}: frontswap page {page} returned "
                        f"stale data (version {got_version} != {expected})"
                    )
                loads += 1
                append(status)
            else:  # BATCH_FLUSH
                stored_pop(page, None)
                invalidates += 1
                append(1 if status else 0)
        # Remote-spilled puts succeeded from the guest's point of view
        # (the page is preserved, just on a peer node's pool).
        stats.succ_stores += result.puts_succ + result.puts_remote
        stats.failed_stores += result.puts_failed
        stats.loads += loads
        stats.invalidates += invalidates
        self._reset()
        return succeeded
