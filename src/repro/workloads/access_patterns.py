"""Vectorised page-access pattern generators.

All generators return numpy integer arrays of guest page numbers.  They
are pure functions of their arguments plus an explicit
:class:`numpy.random.Generator`, so workloads built on them are
deterministic for a given seed.
"""

from __future__ import annotations

import numpy as np

from ..errors import WorkloadError

__all__ = [
    "sequential_pages",
    "zipf_pages",
    "working_set_pages",
]


def _check_region(base_page: int, num_pages: int) -> None:
    if base_page < 0:
        raise WorkloadError(f"base_page must be >= 0, got {base_page}")
    if num_pages <= 0:
        raise WorkloadError(f"num_pages must be > 0, got {num_pages}")


def sequential_pages(base_page: int, num_pages: int) -> np.ndarray:
    """A linear sweep over ``[base_page, base_page + num_pages)``."""
    _check_region(base_page, num_pages)
    return np.arange(base_page, base_page + num_pages, dtype=np.int64)


def zipf_pages(
    base_page: int,
    num_pages: int,
    count: int,
    *,
    alpha: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """*count* accesses over a region with a Zipf(alpha) popularity skew.

    Page ranks are assigned by a deterministic pseudo-random permutation of
    the region so that popular pages are scattered across it (as graph
    vertices are scattered across a CSR array) rather than clustered at the
    start.
    """
    _check_region(base_page, num_pages)
    if count <= 0:
        raise WorkloadError(f"count must be > 0, got {count}")
    if alpha <= 0:
        raise WorkloadError(f"alpha must be > 0, got {alpha}")
    ranks = np.arange(1, num_pages + 1, dtype=np.float64)
    weights = ranks ** (-alpha)
    weights /= weights.sum()
    drawn_ranks = rng.choice(num_pages, size=count, p=weights)
    permutation = rng.permutation(num_pages)
    return base_page + permutation[drawn_ranks].astype(np.int64)


def working_set_pages(
    base_page: int,
    num_pages: int,
    count: int,
    *,
    hot_fraction: float,
    hot_weight: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """*count* accesses where a hot subset receives most of the traffic.

    ``hot_fraction`` of the region receives ``hot_weight`` of the accesses;
    the rest is uniform over the cold pages.  This is the classic
    working-set model used to mimic iterative analytics: the model/state
    arrays are hot, the input partitions are cold.
    """
    _check_region(base_page, num_pages)
    if count <= 0:
        raise WorkloadError(f"count must be > 0, got {count}")
    if not (0.0 < hot_fraction <= 1.0):
        raise WorkloadError(f"hot_fraction must be in (0, 1], got {hot_fraction}")
    if not (0.0 <= hot_weight <= 1.0):
        raise WorkloadError(f"hot_weight must be in [0, 1], got {hot_weight}")
    hot_pages = max(1, int(num_pages * hot_fraction))
    cold_pages = num_pages - hot_pages
    hot_count = int(round(count * hot_weight)) if cold_pages else count
    cold_count = count - hot_count
    parts = []
    if hot_count:
        parts.append(rng.integers(0, hot_pages, size=hot_count, dtype=np.int64))
    if cold_count:
        parts.append(
            hot_pages + rng.integers(0, max(1, cold_pages), size=cold_count, dtype=np.int64)
        )
    pages = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
    rng.shuffle(pages)
    return base_page + pages
