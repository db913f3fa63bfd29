"""Guest swap area on the virtual disk.

Pages that cannot be kept in tmem end up in the guest's swap partition,
which lives on the shared virtual disk.  The swap area tracks which guest
pages currently reside on disk and enforces its configured capacity (the
paper's VMs have a 2 GB swap partition); overflowing it is reported as an
out-of-swap condition, which in a real guest would trigger the OOM killer.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import SwapError

__all__ = ["SwapStats", "SwapArea"]


@dataclass
class SwapStats:
    """Lifetime counters for one guest's swap area."""

    swap_outs: int = 0
    swap_ins: int = 0
    peak_used_pages: int = 0


class SwapArea:
    """Set-based accounting of which guest pages live on the swap disk."""

    def __init__(self, capacity_pages: int) -> None:
        if capacity_pages <= 0:
            raise SwapError(f"swap capacity must be > 0 pages, got {capacity_pages}")
        self._capacity = int(capacity_pages)
        self._slots: set[int] = set()
        self.stats = SwapStats()

    @property
    def capacity_pages(self) -> int:
        return self._capacity

    @property
    def used_pages(self) -> int:
        return len(self._slots)

    @property
    def free_pages(self) -> int:
        return self._capacity - len(self._slots)

    @property
    def slots(self) -> set[int]:
        """Live view of the occupied slots, for batch membership tests.

        Callers must treat it as read-only; mutating it would desynchronize
        the swap accounting.  The one other writer is the batched guest
        engine's replay loop (``GuestKernel._replay_burst``): it applies
        :meth:`store` and :meth:`load` inline, with the same checks and
        errors, and adds the burst's counters to :attr:`stats` once at
        its end.  A fault served from tmem leaves the slots alone: a
        guest page lives in RAM, in tmem or here, never in two of them.
        """
        return self._slots

    def __contains__(self, page: int) -> bool:
        return page in self._slots

    def store(self, page: int) -> None:
        """Record that *page* has been written out to the swap device."""
        slots = self._slots
        if page in slots:
            # Rewriting an existing swap slot is allowed (page dirtied again).
            return
        if len(slots) >= self._capacity:
            raise SwapError(
                f"swap area full ({self._capacity} pages); guest would OOM"
            )
        slots.add(page)
        stats = self.stats
        stats.swap_outs += 1
        used = len(slots)
        if used > stats.peak_used_pages:
            stats.peak_used_pages = used

    def load(self, page: int) -> None:
        """Record that *page* has been read back from the swap device."""
        if page not in self._slots:
            raise SwapError(f"page {page} is not in the swap area")
        self._slots.remove(page)
        self.stats.swap_ins += 1

    def discard(self, page: int) -> bool:
        """Drop a swap slot without reading it (the page was freed)."""
        if page in self._slots:
            self._slots.remove(page)
            return True
        return False

    def clear(self) -> None:
        """Drop every slot without reading it (the process exited)."""
        self._slots.clear()
