"""Empirical Bergsma kernel and U-statistic covariance/correlation estimators.

For a series z_1..z_T the empirically centered kernel is

    h~[m, n] = -1/2 [ |z_m - z_n|
                      - T/(T-1) * ( A_m + A_n - B ) ],

where A_m is the m-th row mean of the absolute-difference matrix and B its
grand mean.  The covariance estimator is the strict-upper-triangle average

    kappa~(x, y) = C(T,2)^{-1} * sum_{m<n} Hx[m,n] * Hy[m,n],

and rho~ = kappa~(x,y) / sqrt(kappa~(x,x) kappa~(y,y)).

Kernel matrices are symmetric, so the strict-upper-triangle sum is half of
the full elementwise sum less the diagonal.  With F the stack of kernels
flattened to rows of length T^2 and d their diagonals, all pairs at once are

    kappa~ = (F F^T - d d^T) / (T (T - 1)),

an exact identity that needs no triangular gather.  Every caller (single
series, panels, batches of simulated panels) goes through
:func:`panel_kernel_stack`, :func:`pairwise_kappa` and :func:`rho_from_kappa`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def panel_kernel_stack(data) -> np.ndarray:
    """Centered kernel matrices for every column of (..., T, R) panels.

    Returns an (..., R, T, T) stack; each region's matrix is built exactly
    once, and the centering is applied in place.
    """
    X = np.ascontiguousarray(np.swapaxes(np.asarray(data, dtype=float), -1, -2))
    T = X.shape[-1]  # X is (..., R, T)
    H = X[..., :, None] - X[..., None, :]
    np.abs(H, out=H)
    A = H.mean(axis=-1)  # row means, (..., R, T)
    # A_m + A_n - B split as a_m + a_n with a = A - B/2
    a = (T / (T - 1.0)) * (A - 0.5 * A.mean(axis=-1, keepdims=True))
    H -= a[..., :, None]
    H -= a[..., None, :]
    H *= -0.5
    return H


def pairwise_kappa(H: np.ndarray) -> np.ndarray:
    """All-pairs kappa~ (..., R, R) from an (..., R, T, T) kernel stack."""
    T = H.shape[-1]
    F = H.reshape(*H.shape[:-2], T * T)
    d = np.diagonal(H, axis1=-2, axis2=-1)
    return (F @ np.swapaxes(F, -1, -2) - d @ np.swapaxes(d, -1, -2)) / (T * (T - 1))


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
    return CenteredKernelMatrix(panel_kernel_stack(z[:, None])[0])


def kappa_tilde(Hx: CenteredKernelMatrix, Hy: CenteredKernelMatrix) -> float:
    """U-statistic covariance estimate from two kernel matrices.

    Averages elementwise products over the strict upper triangle only; the
    diagonal never enters.
    """
    ex, ey = Hx.entries, Hy.entries
    if ex.shape != ey.shape:
        raise DimensionMismatchError(f"kernel shapes differ: {ex.shape} vs {ey.shape}")
    return float(pairwise_kappa(np.stack([ex, ey]))[0, 1])


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
