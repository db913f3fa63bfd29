"""Tmem page identity.

Every tmem page is addressed by a three-element tuple — the pool id, a
64-bit object id and a 32-bit page offset — exactly as described in
Section II-B of the paper (and in the original tmem design).  The guest
kernel derives the object id and offset from the page's position in the
swap area or in the file it caches; the simulator mirrors that derivation
in :mod:`repro.guest.addressing`.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from ..errors import TmemKeyError

__all__ = ["PageKey", "make_page_key"]

#: ``@dataclass(slots=True)`` needs Python 3.10; on 3.9 (the oldest
#: version CI exercises) we fall back to ordinary dataclasses — the slot
#: layout is a memory optimisation, not a semantic requirement.
_SLOTS = {"slots": True} if sys.version_info >= (3, 10) else {}

#: Upper bounds from the tmem ABI: 64-bit object id, 32-bit page index.
MAX_OBJECT_ID = 2**64 - 1
MAX_PAGE_INDEX = 2**32 - 1


@dataclass(frozen=True, **_SLOTS)
class PageKey:
    """The (pool, object, index) triple identifying one tmem page."""

    pool_id: int
    object_id: int
    index: int

    def __post_init__(self) -> None:
        if self.pool_id < 0:
            raise TmemKeyError(f"pool_id must be >= 0, got {self.pool_id}")
        if not (0 <= self.object_id <= MAX_OBJECT_ID):
            raise TmemKeyError(
                f"object_id out of 64-bit range: {self.object_id}"
            )
        if not (0 <= self.index <= MAX_PAGE_INDEX):
            raise TmemKeyError(f"page index out of 32-bit range: {self.index}")


def make_page_key(pool_id: int, object_id: int, index: int) -> PageKey:
    """Trusted fast constructor for :class:`PageKey`.

    Skips the range validation of the regular constructor; callers must
    guarantee the components are already within the tmem ABI bounds (the
    batched hypercall path derives them from validated guest page
    numbers, so re-checking every page would only burn cycles on the
    hottest path of the simulator).
    """
    key = object.__new__(PageKey)
    object.__setattr__(key, "pool_id", pool_id)
    object.__setattr__(key, "object_id", object_id)
    object.__setattr__(key, "index", index)
    return key

