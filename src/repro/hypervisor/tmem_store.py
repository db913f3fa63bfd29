"""The key--value store behind the tmem interface.

A :class:`TmemStore` holds one :class:`TmemPool` per registered (VM,
pool-id) pair.  Pools map :class:`~repro.hypervisor.pages.PageKey` triples
to page *versions*.  The simulator stores no page contents: the guest
writes a monotonically increasing version int with every put, and a get
hands that int back, so that the guest can verify it got the data of the
most recent put (the consistency property a real key--value store
provides).  The store is pure bookkeeping — admission control (targets,
free-page checks) lives in :mod:`repro.hypervisor.tmem_backend`, and
physical frame accounting lives in
:class:`repro.devices.dram.HostMemory`.

Operations mirror the tmem ABI described in the paper: put, get (which in
frontswap mode is *exclusive*: a successful get also removes the page),
flush page and flush object.

Versions are stored in a two-level radix — object id first, page index
second — which makes ``remove_object`` (flush-object) O(pages of that
object) instead of a scan of the whole pool, exactly like the object
nodes of the real tmem implementation.  Below the first object boundary
a page's index is its guest page number, so the planned burst path
(:meth:`TmemBackend.execute_planned
<repro.hypervisor.tmem_backend.TmemBackend.execute_planned>`) serves a
burst that stays in object 0 with bulk operations on that one bucket,
keyed by the guest's own page ints; only bursts that reach a later
object split pages per object.  The store additionally keeps a per-VM
pool index so that ``pools_of``/``pages_held_by`` do not iterate every
pool on the node.
Lookups return the stored version or ``None``; a version may be 0, so
callers test the result with ``is None``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Tuple

from ..errors import TmemPoolError
from .pages import PageKey

__all__ = ["TmemPool", "TmemStore"]


@dataclass
class TmemPool:
    """One tmem pool, owned by exactly one VM.

    Pools are created when the guest's tmem kernel module initialises
    (one pool per mode, frontswap or cleancache).  ``persistent`` pools
    (frontswap) guarantee that a put page stays until flushed; ephemeral
    pools (cleancache) may be reclaimed, although the present backend never
    evicts ephemeral pages spontaneously — the paper's experiments run
    frontswap only.
    """

    pool_id: int
    owner_vm: int
    persistent: bool = True
    #: object id -> page index -> page version (the two-level radix).
    _objects: Dict[int, Dict[int, int]] = field(default_factory=dict)
    _count: int = 0

    def __len__(self) -> int:
        return self._count

    def __contains__(self, key: PageKey) -> bool:
        pages = self._objects.get(key.object_id)
        return pages is not None and key.index in pages

    def insert(self, key: PageKey, version: int) -> None:
        """Store *version* under *key*, replacing any version held there."""
        pages = self._objects.setdefault(key.object_id, {})
        if key.index not in pages:
            self._count += 1
        pages[key.index] = version

    def lookup(self, key: PageKey) -> Optional[int]:
        pages = self._objects.get(key.object_id)
        return pages.get(key.index) if pages is not None else None

    def remove(self, key: PageKey) -> Optional[int]:
        """Drop *key*; returns the version it held, or ``None``."""
        pages = self._objects.get(key.object_id)
        if pages is None:
            return None
        version = pages.pop(key.index, None)
        if version is not None:
            self._count -= 1
            if not pages:
                del self._objects[key.object_id]
        return version

    def remove_object(self, object_id: int) -> int:
        """Drop every page of *object_id*; returns the number removed."""
        pages = self._objects.pop(object_id, None)
        if pages is None:
            return 0
        self._count -= len(pages)
        return len(pages)

    def clear(self) -> int:
        """Drop every page in the pool; returns the number removed."""
        count = self._count
        self._objects.clear()
        self._count = 0
        return count

    # -- batched hot-path accessors -----------------------------------------
    def radix(self) -> Dict[int, Dict[int, int]]:
        """The live object -> index -> version mapping.

        Exposed so the batched hypercall path can probe and mutate the
        radix without a Python call frame per operation.  Callers that
        insert or remove entries directly must report the net page-count
        change through :meth:`adjust_count` before returning.
        """
        return self._objects

    def adjust_count(self, delta: int) -> None:
        """Apply the net page-count change of a batch of raw radix edits."""
        self._count += delta


class TmemStore:
    """All tmem pools on the node, indexed by (vm_id, pool_id)."""

    def __init__(self) -> None:
        self._pools: Dict[Tuple[int, int], TmemPool] = {}
        #: vm_id -> pool_id -> pool; mirror of ``_pools`` for per-VM queries.
        self._pools_by_vm: Dict[int, Dict[int, TmemPool]] = {}
        self._next_pool_id: Dict[int, int] = {}

    # -- pool lifecycle ------------------------------------------------------
    def create_pool(self, vm_id: int, *, persistent: bool = True) -> TmemPool:
        """Create a new pool for *vm_id* and return it."""
        pool_id = self._next_pool_id.get(vm_id, 0)
        self._next_pool_id[vm_id] = pool_id + 1
        pool = TmemPool(pool_id=pool_id, owner_vm=vm_id, persistent=persistent)
        self._pools[(vm_id, pool_id)] = pool
        self._pools_by_vm.setdefault(vm_id, {})[pool_id] = pool
        return pool

    def get_pool(self, vm_id: int, pool_id: int) -> TmemPool:
        try:
            return self._pools[(vm_id, pool_id)]
        except KeyError:
            raise TmemPoolError(
                f"VM {vm_id} has no tmem pool {pool_id}"
            ) from None

    def destroy_vm_pools(self, vm_id: int) -> int:
        """Destroy every pool of a VM (VM teardown); returns pages freed."""
        vm_pools = self._pools_by_vm.pop(vm_id, {})
        freed = 0
        for pool_id, pool in vm_pools.items():
            freed += pool.clear()
            del self._pools[(vm_id, pool_id)]
        self._next_pool_id.pop(vm_id, None)
        return freed

    # -- queries ------------------------------------------------------------
    def pools_of(self, vm_id: int) -> Iterator[TmemPool]:
        return iter(self._pools_by_vm.get(vm_id, {}).values())

    def pages_held_by(self, vm_id: int) -> int:
        return sum(len(pool) for pool in self.pools_of(vm_id))

    def total_pages(self) -> int:
        return sum(len(pool) for pool in self._pools.values())

    def pool_count(self) -> int:
        return len(self._pools)
