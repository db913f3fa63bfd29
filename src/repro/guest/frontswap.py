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

Burst API
---------

The batched guest engine ships a burst's tmem traffic with
:meth:`FrontswapClient.execute_planned`: the victims to put, the pages
to get, and for each put the count of gets ahead of it, in one planned
hypercall.  Versions come from the same clock the scalar path uses, and
the call applies exactly the per-page bookkeeping (stored-page tracking,
statistics, version verification) that the scalar store/load calls
perform — so a planned burst is indistinguishable, counter for counter,
from its scalar equivalent.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat
from typing import Dict, List, Optional, Tuple

from ..errors import GuestError
from ..hypervisor.hypercalls import HypercallInterface
from ..hypervisor.tmem_backend import PlannedBurst
from .addressing import SwapEntryAddresser

__all__ = ["FrontswapStats", "FrontswapClient"]


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

        Exposed for burst membership classification; callers must treat
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
        (the planner derives it from the burst interleaving).  No page
        may appear twice: the puts are recorded before the gets are
        popped.  Applies the exact per-page effects of the equivalent
        scalar :meth:`store`/:meth:`load` calls — stored-page tracking,
        version audit, statistics — with bulk C-level operations.  A
        page a peer node absorbed (put flag 2) is stored like a local
        one; a get that neither the local pool nor a peer could serve
        raises the scalar load's :class:`GuestError`.

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
