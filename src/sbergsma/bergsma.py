"""Empirical Bergsma kernel and U-statistic covariance/correlation estimators.

For a series z_1..z_T the empirically centered kernel is

    h~[m, n] = -1/2 [ |z_m - z_n| - a_m - a_n ],   a = T/(T-1) (A - B/2),

where A_m is the m-th row mean of the absolute-difference matrix and B its
grand mean.  The covariance estimator is the average over the C(T,2) pairs

    kappa~(x, y) = C(T,2)^{-1} * sum_{m<n} Hx[m,n] * Hy[m,n],

and rho~ = kappa~(x,y) / sqrt(kappa~(x,x) kappa~(y,y)).

Only the pairs enter kappa~, so :func:`panel_kernel_stack` builds -2 h~ in a
circulant T x T//2 layout: entry [m, k-1] is the pair {m, (m+k) mod T}.  For
even T the offset T/2 lists each pair twice, and the second listing is zero.
With F the stacks flattened to rows, all pairs at once are

    kappa~ = F F^T / (2 T (T - 1)),

exact, as zeros add nothing.  Every caller (single series, panels, batches of
simulated panels) goes through :func:`panel_kernel_stack`,
:func:`pairwise_kappa` and :func:`rho_from_kappa`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .exceptions import (
    DegenerateRegionError,
    DimensionMismatchError,
    LengthError,
    NonFiniteError,
)


@dataclass(frozen=True)
class CenteredKernelMatrix:
    """Immutable T x T matrix of empirically centered kernel values."""

    entries: np.ndarray

    def __post_init__(self):
        self.entries.setflags(write=False)


def _validated_series(z, min_length: int) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if z.ndim != 1:
        raise DimensionMismatchError(f"expected a 1-d series, got shape {z.shape}")
    if z.size < min_length:
        raise LengthError(f"series length {z.size} < required {min_length}")
    if not np.all(np.isfinite(z)):
        raise NonFiniteError("series contains NaN or infinite values")
    return z


def _centring(X: np.ndarray) -> np.ndarray:
    """a = T/(T-1) (A - B/2) of each series in (..., T), from sorted prefix sums."""
    T = X.shape[-1]
    order = np.argsort(X, axis=-1)
    # shifted by the minimum, so the prefix sums do not cancel at a large offset
    s = np.take_along_axis(X, order, axis=-1)
    s -= s[..., :1]
    c = np.cumsum(s, axis=-1)
    # row sum of |x_m - x_n| for the j-th smallest: sum_{i<j} (s_j - s_i) + sum_{i>j} (s_i - s_j)
    sums = (2 * np.arange(T) + 2 - T) * s + (c[..., -1:] - 2 * c)
    A = np.empty_like(X)
    np.put_along_axis(A, order, sums / T, axis=-1)
    return (T / (T - 1.0)) * (A - 0.5 * A.mean(axis=-1, keepdims=True))


def panel_kernel_stack(data) -> np.ndarray:
    """The (..., R, T, T//2) circulant stack of -2 h~ for (..., T, R) panels."""
    X = np.ascontiguousarray(np.swapaxes(np.asarray(data, dtype=float), -1, -2))
    T = X.shape[-1]  # X is (..., R, T)
    K = T // 2
    a = _centring(X)

    def ahead(v):  # [..., m, k-1] = v[..., (m+k) mod T]
        wrapped = np.concatenate([v, v[..., :K]], axis=-1)
        return sliding_window_view(wrapped, K + 1, axis=-1)[..., 1:]

    H = ahead(X) - X[..., None]
    np.abs(H, out=H)
    H -= a[..., None]
    H -= ahead(a)
    if T % 2 == 0:
        H[..., K:, -1] = 0.0
    return H


def pairwise_kappa(H: np.ndarray) -> np.ndarray:
    """All-pairs kappa~ (..., R, R) from (..., R, T, *) stacks of each pair's -2 h~ once."""
    T = H.shape[-2]
    F = H.reshape(*H.shape[:-2], -1)
    return F @ np.swapaxes(F, -1, -2) / (2 * T * (T - 1))


def rho_from_kappa(kappa: np.ndarray, labels=None) -> np.ndarray:
    """rho~ matrices (..., R, R) with unit diagonal from kappa~ matrices.

    Raises :class:`NonFiniteError` if a self-covariance overflows or is NaN,
    and :class:`DegenerateRegionError` naming every series (by label, or
    1-based position) whose self-covariance is not positive in any matrix of
    the batch: a constant series has an all-zero kernel, at any scale.
    """
    diag = np.diagonal(kappa, axis1=-2, axis2=-1)
    if not np.all(np.isfinite(diag)):
        raise NonFiniteError("self-covariance is not finite: a series is NaN or overflows")
    bad = diag <= 0.0
    if bad.any():
        cols = np.flatnonzero(bad.reshape(-1, diag.shape[-1]).any(axis=0))
        names = ", ".join(labels[i] if labels else f"#{i + 1}" for i in cols)
        raise DegenerateRegionError(f"degenerate (constant) series: {names}")
    # square roots first, so the product cannot overflow or underflow
    sd = np.sqrt(diag)
    rho = kappa / (sd[..., :, None] * sd[..., None, :])
    ii = np.arange(diag.shape[-1])
    rho[..., ii, ii] = 1.0
    return rho


def empirical_kernel_matrix(z) -> CenteredKernelMatrix:
    """Build the empirically centered kernel matrix of a series.

    Requires T >= 2 and finite values.  For T = 2 the off-diagonal entries
    are zero (the centering cancels the single absolute difference exactly).
    """
    z = _validated_series(z, min_length=2)
    a = _centring(z)
    return CenteredKernelMatrix(-0.5 * (np.abs(z[:, None] - z) - a[:, None] - a))


def kappa_tilde(Hx: CenteredKernelMatrix, Hy: CenteredKernelMatrix) -> float:
    """U-statistic covariance estimate from two kernel matrices.

    Averages elementwise products over the strict upper triangle only; the
    diagonal never enters.
    """
    ex, ey = Hx.entries, Hy.entries
    if ex.shape != ey.shape:
        raise DimensionMismatchError(f"kernel shapes differ: {ex.shape} vs {ey.shape}")
    return float(pairwise_kappa(-2.0 * np.triu(np.stack([ex, ey]), 1))[0, 1])


def rho_tilde(x, y) -> float:
    """Bergsma correlation estimate rho~ between two equal-length series.

    Invariant under separate affine maps of each argument (including sign
    flips); raises on constant series, whose self-covariance vanishes.
    """
    x = _validated_series(x, min_length=3)
    y = _validated_series(y, min_length=3)
    if x.size != y.size:
        raise DimensionMismatchError(f"series lengths differ: {x.size} vs {y.size}")
    H = panel_kernel_stack(np.column_stack([x, y]))
    return float(rho_from_kappa(pairwise_kappa(H), ("x", "y"))[0, 1])
