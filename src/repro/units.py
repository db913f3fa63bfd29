"""Memory unit handling.

The simulator works internally in *pages*.  The paper's experiments use
4 KiB pages (the x86 / Xen page size), but simulating a 1 GiB tmem pool at
4 KiB granularity means hundreds of thousands of key--value entries per
run, which is slower than necessary: every quantity the SmarTmem policies
consume (targets, used pages, puts) is a *fraction of the pool*, so the
policy dynamics are invariant to the page granularity.

:class:`MemoryUnits` therefore makes the page size configurable.  Unit
tests exercise the real 4 KiB granularity; the scenario reproductions use
coarser pages (256 KiB by default) purely to keep the event count small.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigurationError

__all__ = [
    "KIB",
    "MIB",
    "GIB",
    "XEN_PAGE_BYTES",
    "MemoryUnits",
]

KIB: int = 1024
MIB: int = 1024 * KIB
GIB: int = 1024 * MIB

#: The page size used by Xen and Linux on x86-64, as in the paper.
XEN_PAGE_BYTES: int = 4 * KIB


@dataclass(frozen=True)
class MemoryUnits:
    """Conversion between bytes and simulated pages.

    Parameters
    ----------
    page_bytes:
        Size of one simulated page in bytes.  Must be a positive multiple
        of 4 KiB so that every simulated page corresponds to a whole number
        of real Xen pages.
    """

    page_bytes: int = XEN_PAGE_BYTES

    def __post_init__(self) -> None:
        if self.page_bytes <= 0:
            raise ConfigurationError(
                f"page_bytes must be positive, got {self.page_bytes}"
            )
        if self.page_bytes % XEN_PAGE_BYTES != 0:
            raise ConfigurationError(
                "page_bytes must be a multiple of the 4 KiB Xen page size, "
                f"got {self.page_bytes}"
            )

    # -- bytes -> pages ----------------------------------------------------
    def pages_from_bytes(self, nbytes: int | float) -> int:
        """Number of whole pages needed to hold *nbytes* (ceiling)."""
        if nbytes < 0:
            raise ConfigurationError(f"byte count must be >= 0, got {nbytes}")
        return -(-int(nbytes) // self.page_bytes)

    def pages_from_mib(self, mib: int | float) -> int:
        return self.pages_from_bytes(int(mib * MIB))

    def pages_from_gib(self, gib: int | float) -> int:
        return self.pages_from_bytes(int(gib * GIB))

    # -- pages -> bytes ----------------------------------------------------
    def bytes_from_pages(self, pages: int) -> int:
        if pages < 0:
            raise ConfigurationError(f"page count must be >= 0, got {pages}")
        return pages * self.page_bytes

    def mib_from_pages(self, pages: int) -> float:
        return self.bytes_from_pages(pages) / MIB

    def gib_from_pages(self, pages: int) -> float:
        return self.bytes_from_pages(pages) / GIB

    # -- scaling -----------------------------------------------------------
    @property
    def xen_pages_per_page(self) -> int:
        """How many real 4 KiB pages one simulated page stands for."""
        return self.page_bytes // XEN_PAGE_BYTES

    def scale_latency(self, per_xen_page_latency: float) -> float:
        """Scale a per-4KiB-page latency to one simulated page.

        Copying a coarser simulated page moves proportionally more data, so
        copy-type latencies scale linearly with the page size.
        """
        return per_xen_page_latency * self.xen_pages_per_page


#: Default unit system used by unit tests (true Xen granularity).
DEFAULT_UNITS = MemoryUnits()

#: Coarser unit system used by the scenario reproductions (256 KiB pages).
SCENARIO_UNITS = MemoryUnits(page_bytes=256 * KIB)

__all__ += ["DEFAULT_UNITS", "SCENARIO_UNITS"]
