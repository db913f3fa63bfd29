"""Page-frame reclaim algorithms (the guest kernel's PFRA).

When a guest's resident set outgrows its RAM, the kernel must pick victim
pages to evict.  Linux uses a pair of active/inactive LRU lists with a
second-chance (CLOCK-like) promotion scheme; the exact algorithm is not
important to the tmem dynamics, but *recency-based* victim selection is:
it determines which pages end up in tmem/swap and therefore which pages
fault back in later.

Two interchangeable reclaimers are provided:

* :class:`LruReclaim` — strict least-recently-used ordering.
* :class:`ClockArrayReclaim` — a second-chance (CLOCK) approximation of
  LRU backed by numpy arrays; ``touch_many``/``select_victims`` operate
  on whole batches, which is what the guest kernel's vectorized access
  path uses.

All operate on integer page numbers and are deliberately free of any
tmem/swap knowledge: they only answer "which page should go next?".

In addition to the scalar primitives, every reclaimer exposes a batch
API (``contains_all``, ``touch_many``, ``insert_many`` and
``select_victims``).  The base class provides loop-based fallbacks with
semantics identical to issuing the scalar calls one at a time; concrete
reclaimers override them with O(batch) vectorized equivalents.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import OrderedDict, deque
from itertools import islice
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from ..errors import ConfigurationError, GuestError

__all__ = [
    "PageReclaimer",
    "LruReclaim",
    "ClockArrayReclaim",
    "make_reclaimer",
]

#: Consume an iterator at C speed, discarding the results (a bound
#: ``extend`` on a zero-capacity deque).  Used to drain ``map`` objects
#: whose per-element calls are executed purely for their side effects.
_consume = deque(maxlen=0).extend


class PageReclaimer(ABC):
    """Tracks resident pages and selects eviction victims."""

    #: True when ``select_victims(k)`` picks the same victims whether new
    #: pages are inserted between selections or afterwards (as long as
    #: ``k`` does not exceed the population at selection time).  Strict
    #: LRU has this property — victims pop from the cold end, inserts go
    #: to the hot end — and the guest kernel's vectorized burst plan
    #: relies on it; CLOCK does not (the hand may sweep into freshly
    #: inserted pages).
    batch_victims_stable = False

    @abstractmethod
    def touch(self, page: int) -> None:
        """Record an access to *page* (which must be resident)."""

    @abstractmethod
    def insert(self, page: int) -> None:
        """Add a newly resident *page*."""

    @abstractmethod
    def remove(self, page: int) -> None:
        """Remove *page* (explicit free or after eviction)."""

    @abstractmethod
    def select_victim(self) -> int:
        """Pick the next page to evict, removing it from the tracker."""

    @abstractmethod
    def __contains__(self, page: int) -> bool: ...

    @abstractmethod
    def __len__(self) -> int: ...

    @abstractmethod
    def pages(self) -> Iterator[int]:
        """Iterate over resident pages (order unspecified)."""

    # -- batch API ---------------------------------------------------------
    # The defaults are semantically equivalent to issuing the scalar calls
    # in sequence; subclasses override them with cheaper implementations.
    #
    # The guest kernel's reclaimers also provide ``members()``: their
    # backing dict/set, whose ``__contains__`` answers residency at C
    # speed.  Hot classification loops probe membership once per page and
    # bind ``members().__contains__`` directly instead of paying a Python
    # frame per probe through the reclaimer's own ``__contains__``.
    def contains_all(self, pages: Sequence[int]) -> bool:
        """True when every page of the batch is resident."""
        return all(map(self.__contains__, pages))

    def touch_if_resident(self, page: int) -> bool:
        """Touch *page* when resident; returns whether it was.

        Fuses the membership test and the touch into one lookup — the
        per-hit cost of the guest kernel's burst planner.
        """
        if page in self:
            self.touch(page)
            return True
        return False

    def touch_many(self, pages: Sequence[int]) -> None:
        """Record accesses to a batch of resident pages, in order."""
        for page in pages:
            self.touch(page)

    def insert_many(self, pages: Sequence[int]) -> None:
        """Add a batch of newly resident pages, in order."""
        for page in pages:
            self.insert(page)

    def select_victims(self, count: int) -> List[int]:
        """Pick *count* eviction victims, identical to *count* scalar calls."""
        if count < 0:
            raise GuestError(f"select_victims() needs count >= 0, got {count}")
        return [self.select_victim() for _ in range(count)]

    def peek_victims(self, count: int) -> Optional[List[int]]:
        """The next *count* victims without evicting, or ``None``.

        Only meaningful for reclaimers whose victim choice is
        insert-order independent (``batch_victims_stable``); others
        return ``None`` because peeking would have to mutate reference
        state.
        """
        del count
        return None

    def promote_burst_planned(
        self, fresh_pages: Sequence[int], occurrences: Sequence[int]
    ) -> None:
        """Apply one burst's recency updates, the burst already classified.

        *fresh_pages* are the burst's distinct non-resident pages in
        first-occurrence order (the order a scalar walk inserts them);
        *occurrences* is the full burst, which may repeat a page; a
        re-occurrence of a fresh page is a touch, as the scalar walk
        treats it.  Inserting the fresh pages first and then replaying
        every occurrence as a touch leaves recency exactly as the scalar
        walk does — each page ends up ordered by its *last* occurrence.
        """
        for page in fresh_pages:
            self.insert(page)
        for page in occurrences:
            self.touch(page)


class LruReclaim(PageReclaimer):
    """Exact LRU based on an ordered dictionary (most recent at the end)."""

    batch_victims_stable = True

    def __init__(self) -> None:
        self._order: "OrderedDict[int, None]" = OrderedDict()

    def touch(self, page: int) -> None:
        try:
            self._order.move_to_end(page)
        except KeyError:
            raise GuestError(f"touch() on non-resident page {page}") from None

    def insert(self, page: int) -> None:
        if page in self._order:
            raise GuestError(f"insert() on already-resident page {page}")
        self._order[page] = None

    def remove(self, page: int) -> None:
        try:
            del self._order[page]
        except KeyError:
            raise GuestError(f"remove() on non-resident page {page}") from None

    def select_victim(self) -> int:
        if not self._order:
            raise GuestError("select_victim() with no resident pages")
        page, _ = self._order.popitem(last=False)
        return page

    def __contains__(self, page: int) -> bool:
        return page in self._order

    def __len__(self) -> int:
        return len(self._order)

    def pages(self) -> Iterator[int]:
        return iter(self._order.keys())

    # -- batch API ---------------------------------------------------------
    def members(self):
        return self._order

    def contains_all(self, pages: Sequence[int]) -> bool:
        return all(map(self._order.__contains__, pages))

    def touch_if_resident(self, page: int) -> bool:
        try:
            self._order.move_to_end(page)
            return True
        except KeyError:
            return False

    def touch_many(self, pages: Sequence[int]) -> None:
        try:
            _consume(map(self._order.move_to_end, pages))
        except KeyError as exc:
            raise GuestError(
                f"touch() on non-resident page {exc.args[0]}"
            ) from None

    def insert_many(self, pages: Sequence[int]) -> None:
        order = self._order
        before = len(order)
        order.update(dict.fromkeys(pages))
        if len(order) != before + len(pages):
            raise GuestError("insert_many() with duplicate or resident pages")

    def select_victims(self, count: int) -> List[int]:
        if count < 0:
            raise GuestError(f"select_victims() needs count >= 0, got {count}")
        if count > len(self._order):
            raise GuestError("select_victim() with no resident pages")
        popitem = self._order.popitem
        return [popitem(last=False)[0] for _ in range(count)]

    def peek_victims(self, count: int) -> Optional[List[int]]:
        if count < 0:
            raise GuestError(f"peek_victims() needs count >= 0, got {count}")
        if count > len(self._order):
            raise GuestError("select_victim() with no resident pages")
        return list(islice(self._order.keys(), count))

    def promote_burst_planned(
        self, fresh_pages: Sequence[int], occurrences: Sequence[int]
    ) -> None:
        # Bulk-insert the fresh pages (their relative order is erased by
        # the replay below), then replay every occurrence as a C-speed
        # move-to-end: the final order is each page's last occurrence —
        # exactly the recency a page-at-a-time scalar walk produces.
        order = self._order
        before = len(order)
        order.update(dict.fromkeys(fresh_pages))
        if len(order) != before + len(fresh_pages):
            raise GuestError("promote_burst_planned() with resident pages")
        _consume(map(order.move_to_end, occurrences))


class ClockArrayReclaim(PageReclaimer):
    """Array-backed second-chance (CLOCK) reclaimer.

    Pages sit on a circular ring with a reference bit.  The clock hand
    sweeps the ring; referenced pages get a second chance (bit cleared),
    unreferenced pages are evicted.  The ring is backed by numpy arrays
    so that batch operations are cheap:

    * ``touch_many`` sets a batch of reference bits with one fancy-index
      assignment;
    * ``select_victims(k)`` picks a whole victim batch with O(ring)
      vectorized segment scans instead of k Python-level ring walks.

    Removed entries become tombstones (``alive`` bit cleared) and the
    arrays are compacted when at least half of the used region is dead,
    so ``remove``/eviction are O(1) amortized rather than an O(n) list
    splice.  ``tests/test_pfra.py`` checks the victim sequence against a
    list-based reference implementation.
    """

    _INITIAL_CAPACITY = 64

    def __init__(self) -> None:
        cap = self._INITIAL_CAPACITY
        self._page = np.empty(cap, dtype=np.int64)
        self._ref = np.zeros(cap, dtype=bool)
        self._alive = np.zeros(cap, dtype=bool)
        self._end = 0  # physical end of the used region
        self._count = 0  # live (resident) pages
        self._hand = 0  # physical index of the clock hand
        self._slot: Dict[int, int] = {}

    # -- storage management ------------------------------------------------
    def _compact(self) -> None:
        """Drop tombstones, preserving ring order and the hand's position."""
        end = self._end
        alive = self._alive[:end]
        live_idx = np.flatnonzero(alive)
        # The hand's logical position is the number of live entries it has
        # already swept past; tombstones in between do not count.
        hand_logical = int(np.count_nonzero(alive[: min(self._hand, end)]))
        n = len(live_idx)
        self._page[:n] = self._page[live_idx]
        self._ref[:n] = self._ref[live_idx]
        self._alive[:end] = False
        self._alive[:n] = True
        self._slot = {int(p): i for i, p in enumerate(self._page[:n])}
        self._end = n
        self._hand = hand_logical

    def _grow(self) -> None:
        cap = max(self._INITIAL_CAPACITY, 2 * len(self._page))
        for name in ("_page", "_ref", "_alive"):
            old = getattr(self, name)
            new = np.zeros(cap, dtype=old.dtype)
            new[: self._end] = old[: self._end]
            setattr(self, name, new)

    def _ensure_capacity(self) -> None:
        if self._end < len(self._page):
            return
        if self._count <= self._end // 2:
            self._compact()
        else:
            self._grow()

    # -- scalar API --------------------------------------------------------
    def touch(self, page: int) -> None:
        idx = self._slot.get(page)
        if idx is None:
            raise GuestError(f"touch() on non-resident page {page}")
        self._ref[idx] = True

    def insert(self, page: int) -> None:
        if page in self._slot:
            raise GuestError(f"insert() on already-resident page {page}")
        self._ensure_capacity()
        end = self._end
        self._page[end] = page
        self._ref[end] = True
        self._alive[end] = True
        self._slot[page] = end
        self._end = end + 1
        self._count += 1

    def remove(self, page: int) -> None:
        idx = self._slot.pop(page, None)
        if idx is None:
            raise GuestError(f"remove() on non-resident page {page}")
        self._alive[idx] = False
        self._ref[idx] = False
        self._count -= 1

    def select_victim(self) -> int:
        return self.select_victims(1)[0]

    def __contains__(self, page: int) -> bool:
        return page in self._slot

    def __len__(self) -> int:
        return self._count

    def pages(self) -> Iterator[int]:
        used = self._page[: self._end]
        return iter(used[self._alive[: self._end]].tolist())

    # -- batch API ---------------------------------------------------------
    def members(self):
        return self._slot

    def contains_all(self, pages: Sequence[int]) -> bool:
        return all(map(self._slot.__contains__, pages))

    def touch_if_resident(self, page: int) -> bool:
        idx = self._slot.get(page)
        if idx is None:
            return False
        self._ref[idx] = True
        return True

    def touch_many(self, pages: Sequence[int]) -> None:
        slot = self._slot
        try:
            idx = [slot[p] for p in pages]
        except KeyError as exc:
            raise GuestError(
                f"touch() on non-resident page {exc.args[0]}"
            ) from None
        if idx:
            self._ref[idx] = True

    def select_victims(self, count: int) -> List[int]:
        """Pick *count* victims exactly as *count* scalar sweeps would.

        One scalar sweep clears the reference bit of every page the hand
        passes and evicts the first unreferenced page; k chained sweeps
        therefore evict every unreferenced page the hand encounters until
        k victims are found.  That is what the segment scans below compute
        with numpy, at most three of them (current position to array end,
        then one full wrap that clears every surviving bit, then a final
        scan in which everything is evictable).
        """
        if count < 0:
            raise GuestError(f"select_victims() needs count >= 0, got {count}")
        if count == 0:
            return []
        if count > self._count:
            raise GuestError("select_victim() with no resident pages")
        page, ref, alive, slot = self._page, self._ref, self._alive, self._slot
        victims: List[int] = []
        need = count
        hand = self._hand
        for _ in range(3):
            if hand >= self._end:
                hand = 0
            end = self._end
            evictable = alive[hand:end] & ~ref[hand:end]
            idxs = np.flatnonzero(evictable)
            if len(idxs) >= need:
                stop = int(idxs[need - 1])
                chosen = idxs[:need] + hand
                ref[hand : hand + stop + 1] = False
                alive[chosen] = False
                for p in page[chosen].tolist():
                    del slot[p]
                    victims.append(p)
                self._count -= need
                self._hand = hand + stop + 1
                return victims
            if len(idxs):
                chosen = idxs + hand
                alive[chosen] = False
                for p in page[chosen].tolist():
                    del slot[p]
                    victims.append(p)
                self._count -= len(idxs)
                need -= len(idxs)
            ref[hand:end] = False
            hand = 0
        raise GuestError("CLOCK sweep failed to find a victim")  # pragma: no cover


def make_reclaimer(algorithm: str) -> PageReclaimer:
    """Factory used by :class:`repro.guest.kernel.GuestKernel`."""
    if algorithm == "lru":
        return LruReclaim()
    if algorithm == "clock":
        return ClockArrayReclaim()
    raise ConfigurationError(f"unknown reclaim algorithm {algorithm!r}")
