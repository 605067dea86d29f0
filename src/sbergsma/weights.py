"""Spatial proximity matrices: construction, validation, row standardization."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bergsma import check_count, frozen_array
from .exceptions import (
    DimensionMismatchError,
    DuplicatePointError,
    IsolatedRegionError,
    NegativeWeightError,
    NonFiniteError,
    RegionIndexError,
    SelfLoopError,
    SizeError,
)

_ROWSUM_TOL = 1e-12


def labels_for(labels, n: int) -> tuple[str, ...]:
    """The labels of n regions: ``labels``, or R1..Rn if none are given."""
    labels = tuple(labels or (f"R{i+1}" for i in range(n)))
    if len(labels) != n:
        raise DimensionMismatchError(f"{len(labels)} labels for {n} regions")
    return labels


@dataclass(frozen=True, eq=False)
class ProximityMatrix:
    """Nonnegative R x R weight matrix with zero diagonal.

    ``standardized`` is whether every row sums to 1 within ``_ROWSUM_TOL``,
    however W was built; passing ``standardized=True`` asserts it.  The
    matrix is immutable once built.
    """

    weights: np.ndarray
    region_labels: tuple[str, ...] = field(default=())
    standardized: bool = False

    def __post_init__(self):
        w = frozen_array(self.weights, 2, "W")
        if w.shape[0] != w.shape[1]:
            raise DimensionMismatchError(f"W must be square, got shape {w.shape}")
        check_count(w.shape[0], "R", 2, SizeError)
        if np.any(w < 0):
            raise NegativeWeightError("W contains negative weights")
        if np.any(np.diagonal(w) != 0):
            i = np.flatnonzero(np.diagonal(w))[0] + 1
            raise SelfLoopError(f"nonzero diagonal entry w[{i},{i}]")
        if not w.any():
            raise IsolatedRegionError("W has no nonzero weight, so S0 = 0")
        labels = labels_for(self.region_labels, w.shape[0])
        standardized = bool(np.all(np.abs(w.sum(axis=1) - 1.0) <= _ROWSUM_TOL))
        if self.standardized and not standardized:
            raise IsolatedRegionError("standardized W has rows not summing to 1")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "region_labels", labels)
        object.__setattr__(self, "standardized", standardized)

    @property
    def n_regions(self) -> int:
        return self.weights.shape[0]

    @property
    def s0(self) -> float:
        """S0 = sum of all weights; equals R when row-standardized."""
        return float(self.weights.sum())


def adjacency_from_edges(edges, R: int) -> ProximityMatrix:
    """Symmetric 0/1 adjacency matrix from unordered region pairs (1-based)."""
    check_count(R, "R", 2, SizeError)
    w = np.zeros((R, R))
    for i, j in edges:
        for k in (i, j):
            check_count(k, f"a region index of edge ({i},{j})", 1, RegionIndexError)
        if max(i, j) > R:
            raise RegionIndexError(f"edge ({i},{j}) outside [1, {R}]")
        w[i - 1, j - 1] = 1.0
        w[j - 1, i - 1] = 1.0
    return ProximityMatrix(w)


def inverse_distance(points, labels=None) -> ProximityMatrix:
    """w_ij = 1 / euclidean distance between planar points i and j."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise DimensionMismatchError(f"expected R x 2 coordinates, got {pts.shape}")
    labels = labels_for(labels, len(pts))
    bad = np.flatnonzero(~np.isfinite(pts).all(axis=1))
    if bad.size:
        names = ", ".join(str(labels[i]) for i in bad)
        raise NonFiniteError(f"non-finite coordinates for region(s) {names}")
    diff = pts[:, None, :] - pts[None, :, :]
    d = np.sqrt((diff**2).sum(axis=2))
    off = ~np.eye(len(pts), dtype=bool)
    if np.any(d[off] == 0):
        i, j = np.argwhere((d == 0) & off)[0]
        raise DuplicatePointError(f"regions {i+1} and {j+1} share coordinates")
    w = np.zeros_like(d)
    w[off] = 1.0 / d[off]
    return ProximityMatrix(w, labels)


def linear_chain(R: int) -> ProximityMatrix:
    """Lag-1 adjacency of regions arranged on a line: w_ij = 1 iff |i-j| = 1."""
    check_count(R, "R", 2, SizeError)  # before range(1, R) reads it
    return adjacency_from_edges([(i, i + 1) for i in range(1, R)], R)


def row_standardize(W: ProximityMatrix) -> ProximityMatrix:
    """Divide every row by its sum so that S0 = R.

    Raises :class:`IsolatedRegionError` naming every all-zero row; silent
    zero rows would break the statistic's monotonicity in the dependence
    strength.
    """
    w = W.weights
    sums = w.sum(axis=1)
    isolated = np.flatnonzero(sums <= 0)
    if isolated.size:
        names = ", ".join(W.region_labels[i] for i in isolated)
        raise IsolatedRegionError(f"cannot standardize: zero-weight rows for {names}")
    return ProximityMatrix(w / sums[:, None], W.region_labels)
