"""Derivation of tmem page keys from guest page identifiers.

The tmem ABI identifies a page by (pool id, 64-bit object id, 32-bit
index).  For frontswap the Linux kernel derives the object id and index
from the swap entry (swap type and offset); for cleancache it uses the
inode number and the page's index within the file.  The paper describes
this in Section II-B.

The simulator identifies guest pages by a single non-negative integer (a
virtual page number).  :class:`SwapEntryAddresser` maps that integer to a
(object, index) pair the same way the kernel splits a swap offset, so the
key space, collision behaviour and flush-object granularity all match the
real layout.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import TmemKeyError
from ..hypervisor.pages import PageKey

__all__ = ["SwapEntryAddresser"]

#: Number of page slots grouped under one tmem object.  Mirrors the radix
#: used by the Linux frontswap shim (one object per 2^20 slot block).
DEFAULT_PAGES_PER_OBJECT = 1 << 20


@dataclass(frozen=True)
class SwapEntryAddresser:
    """Maps guest virtual page numbers to tmem page keys."""

    pool_id: int
    pages_per_object: int = DEFAULT_PAGES_PER_OBJECT

    def __post_init__(self) -> None:
        if self.pool_id < 0:
            raise TmemKeyError(f"pool_id must be >= 0, got {self.pool_id}")
        if self.pages_per_object <= 0:
            raise TmemKeyError(
                f"pages_per_object must be > 0, got {self.pages_per_object}"
            )

    def key_for(self, page_number: int) -> PageKey:
        """Return the tmem key for guest page *page_number*."""
        if page_number < 0:
            raise TmemKeyError(f"page_number must be >= 0, got {page_number}")
        object_id, index = divmod(page_number, self.pages_per_object)
        return PageKey(pool_id=self.pool_id, object_id=object_id, index=index)

    def object_of(self, page_number: int) -> int:
        """The object id a guest page falls under (flush-object target)."""
        return page_number // self.pages_per_object
