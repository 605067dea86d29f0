"""The spatial Bergsma statistic over a time-by-region panel.

    S~_B = sum_{i<j} (w_ij + w_ji) * rho~(X_i, X_j) / S0,   S0 = sum_ij w_ij.

Each region's pair distances are built exactly once (R builds, not R^2), over
its C(T,2) time pairs only, and all pairwise covariances come from one Gram
product of them, accumulated over tiles (see :mod:`sbergsma.bergsma`).
Asymmetric W is handled through the (w_ij + w_ji) form; no implicit
symmetrization.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .bergsma import (
    batch_rows,
    check_count,
    check_time_points,
    frozen_array,
    pairwise_kappa,
    rho_from_kappa,
)
from .exceptions import DimensionMismatchError, SizeError
from .weights import ProximityMatrix, labels_for


@dataclass(frozen=True, eq=False)
class SpatialPanel:
    """T x R matrix of observations; rows are time points, columns regions."""

    data: np.ndarray
    region_labels: tuple[str, ...] = field(default=())

    def __post_init__(self):
        d = frozen_array(self.data, 2, "panel")
        check_time_points(d.shape[0])
        check_count(d.shape[1], "R", 2, SizeError)
        object.__setattr__(self, "data", d)
        object.__setattr__(self, "region_labels", labels_for(self.region_labels, d.shape[1]))

    @property
    def n_time(self) -> int:
        return self.data.shape[0]

    @property
    def n_regions(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True, eq=False)
class SBResult:
    """Value of S~_B plus the full pairwise rho~ matrix; S0 and whether W is
    row-standardized are read from W itself."""

    value: float
    pair_rho: np.ndarray
    scaled_value: float  # T * value

    def __post_init__(self):
        object.__setattr__(self, "pair_rho", frozen_array(self.pair_rho, 2, "pair_rho"))


def sb_statistic(panel: SpatialPanel, W: ProximityMatrix) -> SBResult:
    """Compute S~_B for a panel against a proximity matrix.

    S0 is taken as the actual weight sum even for unstandardized W.
    """
    if W.n_regions != panel.n_regions:
        raise DimensionMismatchError(
            f"W has {W.n_regions} regions, panel has {panel.n_regions}"
        )
    rho = rho_from_kappa(pairwise_kappa(panel.data), panel.region_labels)
    value = float(_weighted_average(rho, W))
    return SBResult(value=value, pair_rho=rho, scaled_value=panel.n_time * value)


def _weighted_average(rho: np.ndarray, W: ProximityMatrix) -> np.ndarray:
    # diagonal of W is zero, so this equals sum_{i<j} (w_ij + w_ji) rho_ij / S0
    return (rho * W.weights).sum(axis=(-2, -1)) / W.s0


def sb_values_batch(panels: np.ndarray, W: ProximityMatrix) -> np.ndarray:
    """S~_B for a (B, T, R) stack of panels.

    The simulation workhorse of the Monte Carlo null, the bootstrap and the
    theta sweep.  :func:`sbergsma.bergsma.pairwise_kappa` groups and tiles
    the batch within the batch byte budget, so memory stays bounded for any
    B, R and T and each value is bitwise the same however the batch is split.
    Raises if the stack is not 3-d, T < 3, or any replicate has a degenerate
    or non-finite column.
    """
    X = np.asarray(panels, dtype=float)
    if X.ndim != 3:
        raise DimensionMismatchError(f"panels must be a 3-d (B, T, R) stack, got {X.shape}")
    if W.n_regions != X.shape[2]:
        raise DimensionMismatchError(f"W has {W.n_regions} regions, panels have {X.shape[2]}")
    return _weighted_average(rho_from_kappa(pairwise_kappa(X)), W)


def replicate_values(values, n: int, row_bytes: int, n_jobs: int = 1) -> np.ndarray:
    """Join ``values(lo, hi)``, the values of units lo..hi-1 along its last
    axis, over ranges that cover 0..n-1.

    The one replicate loop of the Monte Carlo null, the theta sweep, the
    bootstrap and the pair cutoff.  A unit holds ``row_bytes`` bytes, and each
    thread gets a range of min(batch_rows(row_bytes), ceil(n / threads)) units,
    so memory stays bounded in T; no value may depend on where ranges start.
    Ranges run on min(``n_jobs``, usable cores, ranges) threads (one: the
    calling thread) and join in index order, so no value or error depends on
    ``n_jobs``: the first error in index order cancels the ranges not yet started.
    """
    check_count(n_jobs, "n_jobs", 1)
    workers = min(n_jobs, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                  else os.cpu_count() or 1)
    size = min(batch_rows(row_bytes), -(-n // workers))
    starts = range(0, n, size)
    ends = [min(lo + size, n) for lo in starts]
    workers = min(workers, len(starts))
    if workers <= 1:
        parts = list(map(values, starts, ends))
    else:
        # imported here: it loads logging, queue and traceback, which a
        # one-thread call never uses
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(max_workers=workers)
        try:
            parts = list(pool.map(values, starts, ends))
        finally:
            pool.shutdown(cancel_futures=True)
    return np.concatenate(parts, axis=-1)
