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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .bergsma import pairwise_kappa, rho_from_kappa
from .exceptions import (
    DimensionMismatchError,
    InvalidParameterError,
    LengthError,
    NonFiniteError,
    SizeError,
)
from .weights import ProximityMatrix

#: replicates of one range of :func:`replicate_values`; no value depends on it
_RANGE = 200


@dataclass(frozen=True)
class SpatialPanel:
    """T x R matrix of observations; rows are time points, columns regions."""

    data: np.ndarray
    region_labels: tuple[str, ...] = field(default=())

    def __post_init__(self):
        d = np.array(self.data, dtype=float)  # a copy, so no caller can write it
        if d.ndim != 2:
            raise DimensionMismatchError(f"panel must be 2-d, got shape {d.shape}")
        if d.shape[0] < 3:
            raise LengthError(f"need T >= 3 time points, got {d.shape[0]}")
        if d.shape[1] < 2:
            raise SizeError(f"need R >= 2 regions, got {d.shape[1]}")
        if not np.all(np.isfinite(d)):
            raise NonFiniteError("panel contains NaN or infinite values")
        labels = self.region_labels or tuple(f"R{i+1}" for i in range(d.shape[1]))
        if len(labels) != d.shape[1]:
            raise DimensionMismatchError(
                f"{len(labels)} labels for {d.shape[1]} regions"
            )
        d.setflags(write=False)
        object.__setattr__(self, "data", d)
        object.__setattr__(self, "region_labels", tuple(labels))

    @property
    def n_time(self) -> int:
        return self.data.shape[0]

    @property
    def n_regions(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class SBResult:
    """Value of S~_B plus the full pairwise rho~ matrix; S0 and whether W is
    row-standardized are read from W itself."""

    value: float
    pair_rho: np.ndarray
    scaled_value: float  # T * value

    def __post_init__(self):
        self.pair_rho.setflags(write=False)


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
    theta sweep.  :func:`sbergsma.bergsma.pairwise_kappa`, the one owner of
    the kernel byte budget, groups and tiles the batch, so memory stays
    bounded for any B, R and T and each value is bitwise the same however the
    batch is split.  Raises if the stack is not 3-d, T < 3, or any replicate
    has a degenerate or non-finite column.
    """
    X = np.asarray(panels, dtype=float)
    if X.ndim != 3:
        raise DimensionMismatchError(f"panels must be a 3-d (B, T, R) stack, got {X.shape}")
    _, T, R = X.shape
    if T < 3:
        raise LengthError(f"need T >= 3 time points, got {T}")
    if W.n_regions != R:
        raise DimensionMismatchError(f"W has {W.n_regions} regions, panels have {R}")
    return _weighted_average(rho_from_kappa(pairwise_kappa(X)), W)


def replicate_values(values, n: int, n_jobs: int = 1, size: int | None = _RANGE) -> np.ndarray:
    """Join ``values(lo, hi)``, the S~_B of replicates lo..hi-1 along its last
    axis, over the ranges of ``size`` replicates that cover 0..n-1.

    The one replicate loop of the Monte Carlo null, the theta sweep, the
    bootstrap and the pair cutoff.  Ranges run on min(``n_jobs``, usable cores,
    ranges) threads (one: the calling thread) and join in index order, so no
    value depends on ``n_jobs``; the first error cancels the ranges not yet
    started.  ``size=None``, for values that do not depend on where ranges
    start and end, gives each thread a range: min(200, ceil(n / threads)).
    """
    if n_jobs < 1:
        raise InvalidParameterError(f"need n_jobs >= 1 threads, got {n_jobs}")

    workers = min(n_jobs, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                  else os.cpu_count() or 1)
    if size is None:
        size = min(_RANGE, max(1, -(-n // workers)))
    starts = range(0, n, size)
    ends = [min(lo + size, n) for lo in starts]
    workers = min(workers, len(starts))
    if workers <= 1:
        parts = list(map(values, starts, ends))
    else:
        pool = ThreadPoolExecutor(max_workers=workers)
        try:
            parts = list(pool.map(values, starts, ends))
        finally:
            pool.shutdown(cancel_futures=True)
    return np.concatenate(parts, axis=-1)
